package kernel

import (
	"livelock/internal/cpu"
	"livelock/internal/metrics"
	"livelock/internal/netstack"
	"livelock/internal/prov"
	"livelock/internal/sim"
	"livelock/internal/stats"
)

// screendProc models the screend firewall process of §6.2: a user-mode
// program, scheduled at ordinary process priority, that reads one packet
// per system call from a bounded kernel queue, evaluates its filter
// rules, and re-injects accepted packets into the IP output path. The
// experiments configure it to accept all packets; the rule evaluation is
// still performed for real so its cost scales with the rule count.
type screendProc struct {
	r    *Router
	task *cpu.Task

	rules     []screendRule
	scheduled bool
	hung      bool

	// Per-packet loop state (the convention of unmodified.go): the
	// packet between its dequeue and its send, the cost of the SMP
	// body item in flight, and continuations bound once in
	// newScreendProc. loopFn is loop or loopSMP; recvFn dequeues (and,
	// on a uniprocessor, filters); filterFn and sendBodyFn are the SMP
	// loop's unlocked items; sendFn re-injects the packet.
	p                      *netstack.Packet
	cost                   sim.Duration
	loopFn, recvFn, sendFn func()
	filterFn, sendBodyFn   func()

	// Accepted/Rejected count filter verdicts.
	Accepted *stats.Counter
	Rejected *stats.Counter
}

// screendRule is one access-control entry: packets matching the
// (prefix, port) pair are given the rule's verdict.
type screendRule struct {
	prefix netstack.Addr
	bits   int
	port   uint16 // 0 matches any port
	allow  bool
}

func newScreendProc(r *Router) *screendProc {
	s := &screendProc{
		r:        r,
		Accepted: stats.NewCounter("screend.accepted"),
		Rejected: stats.NewCounter("screend.rejected"),
	}
	// Ordinary user-process priority: above the compute-bound spinner,
	// below kernel threads — and, in the unmodified kernel, below every
	// interrupt, which is the whole problem.
	s.task = r.CPU.NewTask("screend", cpu.IPLThread, 5, cpu.ClassUser)
	s.task.SetCenter(prov.CenterScreend)
	if r.smp() {
		s.loopFn, s.recvFn, s.filterFn, s.sendBodyFn, s.sendFn =
			s.loopSMP, s.dequeueSMP, s.filterSMP, s.sendBodySMP, s.sendSMP
	} else {
		s.loopFn, s.recvFn, s.sendFn = s.loop, s.recv, s.send
	}

	// Build the configured number of no-op deny rules followed by a
	// final allow-all, so every packet traverses the whole list (the
	// paper's trials "configured screend to accept all packets").
	n := r.Cfg.ScreendRules
	if n <= 0 {
		n = 1
	}
	for i := 0; i < n-1; i++ {
		s.rules = append(s.rules, screendRule{
			prefix: netstack.AddrFrom(192, 0, byte(i>>8), byte(i)),
			bits:   32,
			allow:  false,
		})
	}
	s.rules = append(s.rules, screendRule{bits: 0, allow: true})
	return s
}

// registerScreendMetrics registers the screening process's verdict
// counters, or constant-zero columns when screend is not configured.
func (r *Router) registerScreendMetrics(reg *metrics.Registry) {
	var accepted, rejected *stats.Counter
	if r.screend != nil {
		accepted, rejected = r.screend.Accepted, r.screend.Rejected
	}
	metrics.MustRegister(reg.Counter("screend.accepted", accepted))
	metrics.MustRegister(reg.Counter("screend.rejected", rejected))
}

// submit hands a packet from the IP layer to the screening queue. Called
// from kernel context (softint or polling thread); the enqueue cost is
// part of the caller's per-packet work. Watermark callbacks on the queue
// drive feedback in the modified kernel. On SMP the caller holds
// netLock (screendq shares the net lock with the output path).
//
//lkvet:requires netLock
func (s *screendProc) submit(p *netstack.Packet) {
	s.r.ld.Check(s.r.screendq)
	if !s.r.screendq.Enqueue(p) {
		s.r.drop(p, prov.ReasonScreendQFull)
		p.Release()
		// Even when the enqueue fails the queue remains above its high
		// watermark; the modified kernel re-asserts feedback here in
		// case a timeout re-enabled input while the queue was full.
		s.r.notifyScreendQueuePressure()
		s.wakeup()
		return
	}
	s.r.notifyScreendQueuePressure()
	s.wakeup()
}

// HangScreend simulates a wedged screening process (§6.6.1's failure
// case: "in case the screend program is hung"): it stops consuming its
// queue until ResumeScreend. No-op without screend.
func (r *Router) HangScreend() {
	if r.screend != nil {
		r.screend.hung = true
	}
}

// ResumeScreend un-wedges the screening process.
func (r *Router) ResumeScreend() {
	if r.screend == nil {
		return
	}
	r.screend.hung = false
	//lkvet:allow lockguard racy emptiness peek from the fault plane; a stale result only costs one wakeup
	if !r.screendq.Empty() {
		r.screend.wakeup()
	}
}

// wakeup makes the process runnable if it is sleeping in select().
func (s *screendProc) wakeup() {
	if s.scheduled || s.hung {
		return
	}
	s.scheduled = true
	s.task.Post(s.r.Cfg.Costs.ScreendWakeup, s.loopFn)
}

// perPkt is the recv syscall plus filter evaluation cost of one packet.
func (s *screendProc) perPkt() sim.Duration {
	c := s.r.Cfg.Costs
	return c.ScreendRecvPerPkt + c.ScreendFilterPerPkt +
		sim.Duration(len(s.rules))*c.ScreendRuleCost
}

// loop processes one packet per iteration: recv syscall, filter
// evaluation, and (if accepted) the send syscall whose kernel half runs
// ip_output and starts transmission. Uniprocessor only (loopSMP is the
// locked variant): one core, fully serialized.
//
//lkvet:requires boot
func (s *screendProc) loop() {
	if s.hung || s.r.screendq.Empty() {
		s.scheduled = false
		return
	}
	s.task.Post(s.perPkt(), s.recvFn)
}

//lkvet:requires boot
func (s *screendProc) recv() {
	p := s.r.screendq.Dequeue()
	if p == nil {
		s.scheduled = false
		return
	}
	s.r.notifyScreendProgress()
	s.r.invest(p, prov.CenterScreend, s.perPkt())
	if s.verdict(p) {
		s.Accepted.Inc()
		s.r.observe(prov.StageScreendAccept, p)
		// The send syscall re-injects the packet; its kernel half
		// (ip_output, ifqueue enqueue, transmit start) is charged
		// here, in process context, as in the real system.
		s.p = p
		s.task.Post(s.r.Cfg.Costs.ScreendSendPerPkt, s.sendFn)
		return
	}
	s.r.drop(p, prov.ReasonScreendReject)
	p.Release()
	s.loop()
}

//lkvet:requires boot
func (s *screendProc) send() {
	p := s.p
	s.p = nil
	s.r.invest(p, prov.CenterScreend, s.r.Cfg.Costs.ScreendSendPerPkt)
	s.r.forwardFrame(p)
	s.loop()
}

// loopSMP is loop with the shared-state touches under r.netLock: the
// screendq dequeue (producers on other cores enqueue under the same
// lock) and the re-injection into the shared output path. Lock holds
// are carved out of the existing syscall costs, so per-packet totals
// match the uniprocessor path exactly.
func (s *screendProc) loopSMP() {
	//lkvet:allow lockguard racy emptiness peek; a stale result only costs one idle reschedule round
	if s.hung || s.r.screendq.Empty() {
		s.scheduled = false
		return
	}
	c := s.r.Cfg.Costs
	s.cost = max(s.perPkt()-c.LockOp, 0)
	s.task.PostLocked(s.r.netLock, c.LockOp, prov.CenterScreend, s.recvFn)
	s.task.Post(s.cost, s.filterFn)
}

//lkvet:requires netLock
func (s *screendProc) dequeueSMP() {
	s.r.ld.Check(s.r.screendq)
	s.p = s.r.screendq.Dequeue()
	if s.p != nil {
		s.r.invest(s.p, prov.CenterScreend, s.r.Cfg.Costs.LockOp)
	}
}

func (s *screendProc) filterSMP() {
	p := s.p
	if p == nil {
		s.scheduled = false
		return
	}
	s.r.notifyScreendProgress()
	s.r.invest(p, prov.CenterScreend, s.cost)
	if s.verdict(p) {
		s.Accepted.Inc()
		s.r.observe(prov.StageScreendAccept, p)
		c := s.r.Cfg.Costs
		s.cost = max(c.ScreendSendPerPkt-c.LockOp, 0)
		s.task.Post(s.cost, s.sendBodyFn)
		s.task.PostLocked(s.r.netLock, c.LockOp, prov.CenterScreend, s.sendFn)
		return
	}
	s.p = nil
	s.r.drop(p, prov.ReasonScreendReject)
	p.Release()
	s.loopSMP()
}

func (s *screendProc) sendBodySMP() { s.r.invest(s.p, prov.CenterScreend, s.cost) }

//lkvet:requires netLock
func (s *screendProc) sendSMP() {
	p := s.p
	s.p = nil
	s.r.invest(p, prov.CenterScreend, s.r.Cfg.Costs.LockOp)
	s.r.forwardFrame(p)
	s.loopSMP()
}

// verdict evaluates the rule list against the packet's real headers.
func (s *screendProc) verdict(p *netstack.Packet) bool {
	_, ip, udp, _, err := netstack.ParseUDPFrame(p.Data)
	if err != nil {
		return false
	}
	for _, rule := range s.rules {
		if !netstack.MatchPrefix(rule.prefix, rule.bits, ip.Dst) {
			continue
		}
		if rule.port != 0 && rule.port != udp.DstPort {
			continue
		}
		return rule.allow
	}
	return false
}
