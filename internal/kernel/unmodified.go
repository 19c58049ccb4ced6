package kernel

import (
	"fmt"

	"livelock/internal/cpu"
	"livelock/internal/metrics"
	"livelock/internal/netstack"
	"livelock/internal/nic"
	"livelock/internal/prov"
	"livelock/internal/sim"
)

// unmodifiedPath implements the 4.2BSD-derived structure of figure 6-2:
//
//	receive interrupt (IPL device)   → ipintrq →
//	software interrupt (IPL softnet) → IP forwarding → output ifqueue →
//	transmit start / transmit-complete interrupt (IPL device)
//
// Every stage has strictly higher priority than the one after it, which
// is why, under input overload, packets are dropped *after* the system
// has already invested device-level work in them (§6.3) — the defining
// waste of receive livelock.
type unmodifiedPath struct {
	r *Router

	rxTasks []*cpu.Task // one per input NIC (SMP: per rx queue), device IPL

	// isrs are the network software interrupts, one per core: isrs[0]
	// is the boot CPU's "netisr" (backed by one, so a uniprocessor
	// allocates no slice). On SMP each is scheduled by the receive
	// handlers steered to its core, all contending on the shared
	// ipintrq under r.ipqLock.
	isrs []*netisr
	one  [1]*netisr
}

// The per-packet loops below follow one convention: each loop keeps
// the packet and cost in flight between its work items in a small
// struct, and posts continuations that are method values bound once at
// construction. A loop only ever has one packet outstanding, and it
// copies the in-flight fields to locals before re-arming, so no work
// item allocates a closure.

// netisr is one core's network software interrupt loop: it forwards
// one ipintrq packet per work item.
type netisr struct {
	u         *unmodifiedPath
	task      *cpu.Task
	scheduled bool

	p    *netstack.Packet // SMP: the packet this round dequeued
	cost sim.Duration     // the forwarding item's cost (SMP: its unlocked body)

	// loopFn re-enters the loop (loop, or loopSMP on SMP); forwardFn
	// is the uniprocessor forwarding item; the SMP loop splits that
	// item into dequeueFn, bodyFn and deliverFn.
	loopFn, forwardFn            func()
	dequeueFn, bodyFn, deliverFn func()
}

func (u *unmodifiedPath) newNetisr(c *cpu.CPU, name string) *netisr {
	n := &netisr{u: u}
	n.task = c.NewTask(name, cpu.IPLSoft, 0, cpu.ClassSoft)
	n.task.SetCenter(prov.CenterIPInput)
	if u.r.smp() {
		n.loopFn, n.dequeueFn, n.bodyFn, n.deliverFn = n.loopSMP, n.dequeueSMP, n.bodySMP, n.deliverSMP
	} else {
		n.loopFn, n.forwardFn = n.loop, n.forward
	}
	return n
}

// rxHandler is one receive interrupt's per-packet loop at device IPL
// (SMP: one steered rx queue's).
type rxHandler struct {
	u    *unmodifiedPath
	in   *nic.NIC
	task *cpu.Task
	q    int     // SMP: the rx queue this handler drains
	isr  *netisr // the netisr on this handler's core

	p    *netstack.Packet
	cost sim.Duration

	// loopFn is loop (loopSMP on SMP); enqueueFn hands the packet to
	// ipintrq; the SMP loop first runs tapFn, the unlocked body.
	loopFn, enqueueFn, tapFn func()
}

// intr is the hardware interrupt: pay the dispatch cost, then start
// the batched per-packet loop.
func (h *rxHandler) intr() { h.task.Post(h.u.r.Cfg.Costs.IntrDispatch, h.loopFn) }

// txHandler is one port's transmit-complete interrupt loop at device
// IPL; it reclaims one descriptor per work item.
type txHandler struct {
	u         *unmodifiedPath
	port      *netPort
	loopFn    func() // loop, or loopSMP on SMP
	reclaimFn func() // reclaim, or reclaimSMP on SMP
}

func (h *txHandler) intr() { h.port.txTask.Post(h.u.r.Cfg.Costs.IntrDispatch, h.loopFn) }

func newUnmodifiedPath(r *Router) *unmodifiedPath {
	u := &unmodifiedPath{r: r}
	u.one[0] = u.newNetisr(r.CPU, "netisr")
	u.isrs = u.one[:]

	if r.smp() {
		u.initSMP()
	} else {
		for _, in := range r.Ins {
			task := r.CPU.NewTask("rxintr."+in.Name(), cpu.IPLDevice, 0, cpu.ClassIntr)
			task.SetCenter(prov.CenterRxIntr)
			u.rxTasks = append(u.rxTasks, task)
			h := &rxHandler{u: u, in: in, task: task, isr: u.isrs[0]}
			h.loopFn, h.enqueueFn = h.loop, h.enqueue
			in.SetRxInterrupt(h.intr)
		}
	}

	// Every port that can transmit gets a device-IPL transmit-complete
	// handler (on the boot CPU: output interfaces are not steered).
	for _, port := range r.ports {
		port.txTask = r.CPU.NewTask("txintr."+port.nic.Name(), cpu.IPLDevice, 0, cpu.ClassIntr)
		port.txTask.SetCenter(prov.CenterTxIntr)
		h := &txHandler{u: u, port: port}
		if r.smp() {
			h.loopFn, h.reclaimFn = h.loopSMP, h.reclaimSMP
		} else {
			h.loopFn, h.reclaimFn = h.loop, h.reclaim
		}
		port.nic.SetTxInterrupt(h.intr)
	}
	return u
}

// initSMP builds the N-core receive topology: per-core netisrs, and one
// device-IPL task per (input NIC, rx queue) pair placed round-robin
// across cores by global queue index — the MSI-style IRQ steering.
func (u *unmodifiedPath) initSMP() {
	r := u.r
	n := r.Sys.N()
	for k := 1; k < n; k++ {
		u.isrs = append(u.isrs, u.newNetisr(r.Sys.CPU(k), fmt.Sprintf("netisr.%d", k)))
	}
	gidx := 0
	for _, in := range r.Ins {
		for q := 0; q < in.RxQueues(); q++ {
			core := gidx % n
			task := r.Sys.CPU(core).NewTask(
				fmt.Sprintf("rxintr.%s.q%d", in.Name(), q),
				cpu.IPLDevice, 0, cpu.ClassIntr)
			task.SetCenter(prov.CenterRxIntr)
			u.rxTasks = append(u.rxTasks, task)
			h := &rxHandler{u: u, in: in, task: task, q: q, isr: u.isrs[core]}
			h.loopFn, h.enqueueFn, h.tapFn = h.loopSMP, h.enqueueSMP, h.tapSMP
			in.SetRxQueueInterrupt(q, h.intr)
			gidx++
		}
	}
}

// registerMetrics registers the interrupt-driven path's instruments.
// The poller/gate columns exist in every mode; here they are constants
// (no poller, input never gated) so unmodified-kernel timelines diff
// cleanly against polled ones.
func (u *unmodifiedPath) registerMetrics(reg *metrics.Registry) {
	must := metrics.MustRegister
	must(reg.Gauge("netisr.pending", func() float64 {
		var pend int
		for _, n := range u.isrs {
			pend += n.task.Pending()
		}
		return float64(pend)
	}))
	must(reg.Counter("poller.wakeups", nil))
	must(reg.Counter("poller.rounds", nil))
	must(reg.Counter("poller.rx", nil))
	must(reg.Counter("poller.tx", nil))
	must(reg.Gauge("gate.open", func() float64 { return 1 }))
	must(reg.Counter("feedback.inhibits", nil))
	must(reg.Counter("feedback.timeouts", nil))
	must(reg.Counter("cyclelimit.inhibits", nil))
}

// rxPktCost returns the device-IPL per-packet cost, with the compat
// penalty in ModePolledCompat.
func (u *unmodifiedPath) rxPktCost() sim.Duration {
	c := u.r.Cfg.Costs.RxDevicePerPkt
	if u.r.Cfg.Mode == ModePolledCompat {
		c += u.r.Cfg.Costs.CompatPenalty
	}
	return c
}

func (u *unmodifiedPath) fwdPktCost() sim.Duration {
	c := u.r.Cfg.Costs.IPForwardPerPkt
	if u.r.Cfg.Mode == ModePolledCompat {
		c += u.r.Cfg.Costs.CompatPenalty
	}
	return c
}

// loop processes one packet per work item at device IPL, continuing
// while the ring is non-empty (interrupt batching: the dispatch cost was
// paid once, by the interrupt that started the loop). Uniprocessor
// only (loopSMP is the locked variant): one core, fully serialized.
//
//lkvet:requires boot
func (h *rxHandler) loop() {
	p := h.in.TakeRx()
	if p == nil {
		h.in.RxIntrDone()
		return
	}
	h.p, h.cost = p, h.u.rxPktCost()
	h.task.Post(h.cost, h.enqueueFn)
}

// enqueue finishes link-level processing: the device cycles just
// consumed are invested in this packet's provenance record, then the
// promiscuous monitor is tapped and the packet handed to the IP layer
// via ipintrq. A full queue drops it here — after the device work was
// spent (the "foolish" drop of §6.3).
//
//lkvet:requires boot
func (h *rxHandler) enqueue() {
	r, p := h.u.r, h.p
	h.p = nil
	r.invest(p, prov.CenterRxIntr, h.cost)
	r.tapMonitor(p)
	if r.ipintrq.Enqueue(p) {
		r.observe(prov.StageIPIntrQEnqueue, p)
		h.isr.schedule()
	} else {
		r.drop(p, prov.ReasonIPIntrQFull)
		p.Release()
	}
	if r.Cfg.DisableBatching {
		// Ablation: one packet per interrupt; the next packet pays
		// a fresh dispatch cost.
		h.in.RxIntrDone()
		return
	}
	h.loop()
}

// schedule raises the network software interrupt if it is not already
// pending.
func (n *netisr) schedule() {
	if n.scheduled {
		return
	}
	n.scheduled = true
	n.task.Post(n.u.r.Cfg.Costs.SoftintDispatch, n.loopFn)
}

// loop forwards one packet per work item at softint IPL.
// Uniprocessor only (loopSMP is the locked variant).
//
//lkvet:requires boot
func (n *netisr) loop() {
	r := n.u.r
	if r.ipintrq.Empty() {
		n.scheduled = false
		return
	}
	cost := n.u.fwdPktCost()
	if head := r.ipintrq.Peek(); head != nil && r.screend == nil &&
		r.fastPathHit(head.Data) {
		cost -= r.Cfg.Costs.FastPathSavings
	}
	n.cost = cost
	n.task.Post(cost, n.forwardFn)
}

// forward is ip_input for the packet at the head of ipintrq.
//
//lkvet:requires boot
func (n *netisr) forward() {
	r := n.u.r
	if p := r.ipintrq.Dequeue(); p != nil {
		r.invest(p, prov.CenterIPInput, n.cost)
		r.observe(prov.StageSoftIPInput, p)
		n.u.deliverIP(p)
	}
	n.loop()
}

// deliverIP is the IP layer: locally-addressed packets go to the
// socket/ICMP machinery; with screend configured, transit packets are
// queued to the screening process; otherwise they are forwarded
// directly. On SMP this runs inside the netisr's netLock section.
//
//lkvet:requires netLock
func (u *unmodifiedPath) deliverIP(p *netstack.Packet) {
	if _, local := u.r.isLocal(p.Data); local {
		u.r.deliverLocal(p)
		return
	}
	if u.r.screend != nil {
		u.r.screend.submit(p)
		return
	}
	u.r.forwardFrame(p)
}

// loop reclaims one transmit descriptor per work item at device IPL.
// Uniprocessor only (loopSMP is the locked variant).
//
//lkvet:requires boot
func (h *txHandler) loop() {
	if !h.port.nic.ReclaimTx() {
		h.port.nic.TxIntrDone()
		return
	}
	h.port.txTask.Post(h.u.r.Cfg.Costs.TxDevicePerPkt, h.reclaimFn)
}

//lkvet:requires boot
func (h *txHandler) reclaim() {
	h.u.r.ifStart(h.port)
	h.loop()
}

// The SMP variants below split each per-packet cost into an unlocked
// body and a LockOp-sized locked tail, so the per-packet total is
// unchanged from the uniprocessor path — what an N-core run adds is
// only spin time on the shared queues, charged to prov.CenterLock.

// loopSMP is loop for one steered rx queue: the ipintrq enqueue happens
// under r.ipqLock, and the netisr raised is the one on this handler's
// own core.
func (h *rxHandler) loopSMP() {
	p := h.in.TakeRxQueue(h.q)
	if p == nil {
		h.in.RxQueueIntrDone(h.q)
		return
	}
	c := h.u.r.Cfg.Costs
	h.p, h.cost = p, max(h.u.rxPktCost()-c.LockOp, 0)
	h.task.Post(h.cost, h.tapFn)
	h.task.PostLocked(h.u.r.ipqLock, c.LockOp, prov.CenterRxIntr, h.enqueueFn)
}

// tapSMP is the unlocked body of the device work.
func (h *rxHandler) tapSMP() {
	h.u.r.invest(h.p, prov.CenterRxIntr, h.cost)
	h.u.r.tapMonitor(h.p)
}

//lkvet:requires ipqLock
func (h *rxHandler) enqueueSMP() {
	r, p := h.u.r, h.p
	h.p = nil
	r.ld.Check(r.ipintrq)
	r.invest(p, prov.CenterRxIntr, r.Cfg.Costs.LockOp)
	if r.ipintrq.Enqueue(p) {
		r.observe(prov.StageIPIntrQEnqueue, p)
		h.isr.schedule()
	} else {
		r.drop(p, prov.ReasonIPIntrQFull)
		p.Release()
	}
	if r.Cfg.DisableBatching {
		h.in.RxQueueIntrDone(h.q)
		return
	}
	h.loopSMP()
}

// loopSMP forwards one packet per round on its core's netisr: dequeue
// under ipqLock (another core may have drained the queue since this
// round was scheduled), the forwarding body unlocked, then the
// output-side work under netLock.
func (n *netisr) loopSMP() {
	r := n.u.r
	//lkvet:allow lockguard racy emptiness peek; a stale result only costs one idle reschedule round
	if r.ipintrq.Empty() {
		n.scheduled = false
		return
	}
	c := r.Cfg.Costs
	n.cost = max(n.u.fwdPktCost()-2*c.LockOp, 0)
	n.task.PostLocked(r.ipqLock, c.LockOp, prov.CenterIPInput, n.dequeueFn)
	n.task.Post(n.cost, n.bodyFn)
	n.task.PostLocked(r.netLock, c.LockOp, prov.CenterIPInput, n.deliverFn)
}

//lkvet:requires ipqLock
func (n *netisr) dequeueSMP() {
	r := n.u.r
	r.ld.Check(r.ipintrq)
	n.p = r.ipintrq.Dequeue()
	if n.p != nil {
		r.invest(n.p, prov.CenterIPInput, r.Cfg.Costs.LockOp)
	}
}

func (n *netisr) bodySMP() {
	if n.p != nil {
		n.u.r.invest(n.p, prov.CenterIPInput, n.cost)
	}
}

//lkvet:requires netLock
func (n *netisr) deliverSMP() {
	r, p := n.u.r, n.p
	n.p = nil
	if p != nil {
		r.invest(p, prov.CenterIPInput, r.Cfg.Costs.LockOp)
		r.observe(prov.StageSoftIPInput, p)
		n.u.deliverIP(p)
	}
	n.loopSMP()
}

// loopSMP is loop with the ifStart refill under netLock (the output
// ifqueue is shared with every core's netisr).
func (h *txHandler) loopSMP() {
	if !h.port.nic.ReclaimTx() {
		h.port.nic.TxIntrDone()
		return
	}
	c := h.u.r.Cfg.Costs
	h.port.txTask.Post(max(c.TxDevicePerPkt-c.LockOp, 0), nil)
	h.port.txTask.PostLocked(h.u.r.netLock, c.LockOp, prov.CenterTxIntr, h.reclaimFn)
}

//lkvet:requires netLock
func (h *txHandler) reclaimSMP() {
	h.u.r.ifStart(h.port)
	h.loopSMP()
}
