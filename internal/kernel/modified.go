package kernel

import (
	"fmt"

	"livelock/internal/core"
	"livelock/internal/cpu"
	"livelock/internal/metrics"
	"livelock/internal/netstack"
	"livelock/internal/nic"
	"livelock/internal/prov"
	"livelock/internal/queue"
	"livelock/internal/sim"
	"livelock/internal/stats"
)

// Gate source names.
const (
	gateFeedback = "screend-queue-feedback"
	gateCycles   = "cycle-limit"
)

// polledPath implements the modified kernel of §6.4: the interrupt
// handler "does almost no work at all" — it schedules the polling thread
// and leaves device interrupts masked; the polling thread's callbacks
// then process received packets to completion (no ipintrq) and reclaim
// transmit descriptors, round-robin with a per-callback quota, and
// re-enable interrupts only when no work is pending. Queue-state
// feedback (§6.6.1) and the CPU cycle limiter (§7) inhibit input through
// a shared gate.
type polledPath struct {
	r       *Router
	poller  *core.Poller
	gate    *core.Gate
	clocked bool // periodic polling, no device interrupts (§8)

	rxTasks  []*cpu.Task
	feedback *core.Feedback
	limiter  *core.CycleLimiter

	// SMP generalization: one polling thread per non-IRQ core
	// (pollers[0] is poller above), each serving the rx queues steered
	// to it. rxRefs records the (port, queue) → poller assignment for
	// the gate-reopen and watchdog paths; txOwner is the poller that
	// runs each port's transmit-reclaim step.
	pollers []*core.Poller
	one     [1]*core.Poller // backs pollers on a uniprocessor (no allocation)
	rxRefs  []rxQueueRef
	txOwner map[*netPort]*core.Poller
}

// rxQueueRef is one steered receive queue and the poller serving it.
type rxQueueRef struct {
	port *netPort
	q    int
	pol  *core.Poller
}

//lkvet:requires boot
func newPolledPath(r *Router) *polledPath {
	m := &polledPath{r: r, gate: core.NewGate(), clocked: r.Cfg.ClockedPollInterval > 0}
	c := r.Cfg.Costs

	pcfg := core.PollerConfig{
		Quota:      r.Cfg.Quota,
		WakeupCost: c.PollWakeup,
		RoundCost:  c.PollRound,
	}
	m.poller = core.NewPoller(r.Eng, r.CPU, 10, pcfg)
	m.one[0] = m.poller
	m.pollers = m.one[:]
	if r.smp() {
		// One polling thread per core, minus any cores dedicated to
		// interrupt handling (Config.IRQCPUs isolation).
		for k := 1; k < r.Cfg.CPUs-r.Cfg.IRQCPUs; k++ {
			m.pollers = append(m.pollers,
				core.NewNamedPoller(r.Eng, r.Sys.CPU(k), fmt.Sprintf("poller.%d", k), 10, pcfg))
		}
	}

	// Input gating: the poller skips receive callbacks while the gate
	// is closed; transmit processing is never gated (§7: "the
	// cycle-limit mechanism inhibits packet input processing but not
	// output processing").
	for _, pol := range m.pollers {
		pol.SetRxGate(func(*core.Device) bool { return m.gate.Open() })
	}

	// When the gate re-opens, unmask receive interrupts so backlogged
	// rings immediately re-assert (unless the poller serving them is
	// about to notice the backlog itself).
	m.gate.OnChange = func(open bool) {
		if !open || m.clocked {
			return
		}
		if r.smp() {
			for _, ref := range m.rxRefs {
				if !ref.pol.Scheduled() {
					ref.port.nic.RxQueueIntrDone(ref.q)
				}
			}
			return
		}
		if m.poller.Scheduled() {
			return
		}
		for _, in := range r.Ins {
			in.RxIntrDone()
		}
	}

	if r.Cfg.Feedback && r.Cfg.Screend {
		m.feedback = core.NewFeedback(r.Eng, m.gate, gateFeedback, r.Cfg.FeedbackTimeout)
		r.screendq.SetWatermarks(r.Cfg.ScreendQHigh, r.Cfg.ScreendQLow)
		r.screendq.OnHigh = m.feedback.QueueHigh
		r.screendq.OnLow = m.feedback.QueueLow
	}

	if th := r.Cfg.CycleLimitThreshold; th > 0 && th < 1 {
		m.limiter = core.NewCycleLimiter(m.gate, gateCycles, r.Cfg.CycleLimitPeriod, th)
		for _, pol := range m.pollers {
			pol.SetUsageHook(m.limiter.NoteUsage)
		}
		r.CPU.OnIdle(m.limiter.OnIdle)
	}

	if r.smp() {
		m.initDevicesSMP()
		if m.clocked {
			m.scheduleClockedPoll()
		}
		return m
	}

	// Device registration (§6.4 "at boot time, the modified interface
	// drivers register themselves with the polling system"). Every port
	// registers both directions: inputs receive the flood and transmit
	// router-originated frames (ICMP, replies); the output port only
	// transmits.
	sched := m.poller.Schedule
	for _, port := range r.ports {
		port := port
		isInput := port.idx != OutIfIndex
		rx := core.Step(noWork)
		if isInput {
			rx = newPolledRx(r, port.nic, -1).step
		}
		m.poller.Register(&core.Device{
			Name: port.nic.Name(),
			Rx:   rx,
			Tx:   newPolledTx(r, port).step,
			// Uniprocessor only: one core, fully serialized.
			//lkvet:requires boot
			EnableInterrupts: func() {
				// Clocked mode never re-enables interrupts: the next
				// period's timer finds the work.
				if m.clocked {
					return
				}
				// Unmask receive only while input is allowed; a closed
				// gate leaves the interrupt held off so the ring absorbs
				// (and then cheaply drops) the flood. Transmit
				// completions are reclaimed lazily by rx-driven polling;
				// the transmit interrupt is re-enabled only when reclaim
				// is urgent — packets stranded on the ifqueue, or most
				// descriptors consumed — following the
				// avoid-transmit-interrupts practice the paper cites
				// (§7.1, [6]).
				if isInput && m.gate.Open() {
					port.nic.RxIntrDone()
				}
				if !port.outq.Empty() || port.nic.TxCompletedLen() > r.Cfg.NIC.TxRing/2 {
					port.nic.TxIntrDone()
				}
			},
		})

		if isInput {
			task := r.CPU.NewTask("rxintr."+port.nic.Name(), cpu.IPLDevice, 0, cpu.ClassIntr)
			task.SetCenter(prov.CenterRxIntr)
			m.rxTasks = append(m.rxTasks, task)
			port.nic.SetRxInterrupt(func() {
				// The whole interrupt handler: dispatch cost, then
				// schedule the polling thread. The interrupt stays
				// masked (no RxIntrDone) until the poller re-enables it.
				task.Post(c.IntrDispatch, sched)
			})
		}
		txTask := r.CPU.NewTask("txintr."+port.nic.Name(), cpu.IPLDevice, 0, cpu.ClassIntr)
		txTask.SetCenter(prov.CenterTxIntr)
		port.nic.SetTxInterrupt(func() {
			txTask.Post(c.IntrDispatch, sched)
		})
		if m.clocked {
			port.nic.EnableRxInterrupt(false)
			port.nic.EnableTxInterrupt(false)
		}
	}

	if m.clocked {
		m.scheduleClockedPoll()
	}
	return m
}

// initDevicesSMP is the SMP device registration: each input NIC
// exposes one device per rx queue, assigned round-robin (by global
// queue index) to the polling threads; every step's commit runs under
// r.netLock since the output ifqueues and screend queue are shared
// across cores. Each port's transmit-reclaim step rides on its first
// queue's device; the output-only port registers with poller 0.
// Per-queue MSI-like interrupt tasks land on the queue's own core, or
// on the dedicated IRQ cores when Config.IRQCPUs isolates them.
func (m *polledPath) initDevicesSMP() {
	r := m.r
	c := r.Cfg.Costs
	n := r.Sys.N()
	nPoll := len(m.pollers)
	nIRQ := r.Cfg.IRQCPUs
	m.txOwner = make(map[*netPort]*core.Poller)

	irqCPU := func(idx int) *cpu.CPU {
		if nIRQ > 0 {
			return r.Sys.CPU(nPoll + idx%nIRQ)
		}
		return r.Sys.CPU(idx % n)
	}
	// The output-only port first, matching the uniprocessor
	// registration order (r.ports lists it first).
	out := r.portByIdx[OutIfIndex]
	m.txOwner[out] = m.pollers[0]
	m.pollers[0].Register(&core.Device{
		Name:       out.nic.Name(),
		Rx:         noWork,
		Tx:         newPolledTx(r, out).step,
		Lock:       r.netLock,
		LockedTail: c.LockOp,
		EnableInterrupts: func() {
			if m.clocked {
				return
			}
			//lkvet:allow lockguard racy urgency peek at interrupt re-enable; a stale result only re-enables the tx interrupt early
			if !out.outq.Empty() || out.nic.TxCompletedLen() > r.Cfg.NIC.TxRing/2 {
				out.nic.TxIntrDone()
			}
		},
	})

	gidx := 0
	for _, port := range r.ports {
		port := port
		if port.idx == OutIfIndex {
			continue
		}
		for q := 0; q < port.nic.RxQueues(); q++ {
			q := q
			pol := m.pollers[gidx%nPoll]
			hasTx := q == 0
			dev := &core.Device{
				Name:       fmt.Sprintf("%s.q%d", port.nic.Name(), q),
				Rx:         newPolledRx(r, port.nic, q).step,
				Tx:         noWork,
				Lock:       r.netLock,
				LockedTail: c.LockOp,
			}
			if hasTx {
				dev.Tx = newPolledTx(r, port).step
				m.txOwner[port] = pol
			}
			dev.EnableInterrupts = func() {
				if m.clocked {
					return
				}
				if m.gate.Open() {
					port.nic.RxQueueIntrDone(q)
				}
				//lkvet:allow lockguard racy urgency peek at interrupt re-enable; a stale result only re-enables the tx interrupt early
				if hasTx && (!port.outq.Empty() || port.nic.TxCompletedLen() > r.Cfg.NIC.TxRing/2) {
					port.nic.TxIntrDone()
				}
			}
			pol.Register(dev)
			m.rxRefs = append(m.rxRefs, rxQueueRef{port: port, q: q, pol: pol})

			task := irqCPU(gidx).NewTask(
				fmt.Sprintf("rxintr.%s.q%d", port.nic.Name(), q),
				cpu.IPLDevice, 0, cpu.ClassIntr)
			task.SetCenter(prov.CenterRxIntr)
			m.rxTasks = append(m.rxTasks, task)
			sched := pol.Schedule
			port.nic.SetRxQueueInterrupt(q, func() {
				task.Post(c.IntrDispatch, sched)
			})
			gidx++
		}
	}

	// Transmit interrupts: one device-IPL task per port, steered like
	// the rx tasks, waking the poller that owns the port's reclaim step.
	for _, port := range r.ports {
		port := port
		txTask := irqCPU(gidx).NewTask("txintr."+port.nic.Name(), cpu.IPLDevice, 0, cpu.ClassIntr)
		txTask.SetCenter(prov.CenterTxIntr)
		sched := m.txOwner[port].Schedule
		port.nic.SetTxInterrupt(func() {
			txTask.Post(c.IntrDispatch, sched)
		})
		if m.clocked {
			port.nic.EnableRxInterrupt(false)
			port.nic.EnableTxInterrupt(false)
		}
		gidx++
	}
}

// registerMetrics registers the polled path's instruments: poller
// activity counters (the per-interval rx delta is quota usage) and the
// input gate's state, under the same names the unmodified path
// registers as constants.
func (m *polledPath) registerMetrics(reg *metrics.Registry) {
	must := metrics.MustRegister
	must(reg.Gauge("netisr.pending", func() float64 { return 0 }))
	if len(m.pollers) > 1 {
		sum := func(pick func(*core.Poller) *stats.Counter) func() uint64 {
			return func() uint64 {
				var total uint64
				for _, pol := range m.pollers {
					total += pick(pol).Value()
				}
				return total
			}
		}
		must(reg.CounterFunc("poller.wakeups", sum(func(p *core.Poller) *stats.Counter { return p.Wakeups })))
		must(reg.CounterFunc("poller.rounds", sum(func(p *core.Poller) *stats.Counter { return p.Rounds })))
		must(reg.CounterFunc("poller.rx", sum(func(p *core.Poller) *stats.Counter { return p.RxSteps })))
		must(reg.CounterFunc("poller.tx", sum(func(p *core.Poller) *stats.Counter { return p.TxSteps })))
	} else {
		must(reg.Counter("poller.wakeups", m.poller.Wakeups))
		must(reg.Counter("poller.rounds", m.poller.Rounds))
		must(reg.Counter("poller.rx", m.poller.RxSteps))
		must(reg.Counter("poller.tx", m.poller.TxSteps))
	}
	must(reg.Gauge("gate.open", func() float64 {
		if m.gate.Open() {
			return 1
		}
		return 0
	}))
	var fbInhibits, fbTimeouts, clInhibits *stats.Counter
	if m.feedback != nil {
		fbInhibits, fbTimeouts = m.feedback.Inhibits, m.feedback.Timeouts
	}
	if m.limiter != nil {
		clInhibits = m.limiter.Inhibits
	}
	must(reg.Counter("feedback.inhibits", fbInhibits))
	must(reg.Counter("feedback.timeouts", fbTimeouts))
	must(reg.Counter("cyclelimit.inhibits", clInhibits))
}

// scheduleClockedPoll drives the pure-polling design: the polling thread
// is made runnable every ClockedPollInterval regardless of device state.
func (m *polledPath) scheduleClockedPoll() {
	m.r.Eng.AfterCall(m.r.Cfg.ClockedPollInterval, clockedPoll, m, nil)
}

// clockedPoll is the periodic poll callback (sim.Callback shape).
func clockedPoll(a, _ any) {
	m := a.(*polledPath)
	for _, pol := range m.pollers {
		pol.Schedule()
	}
	m.scheduleClockedPoll()
}

// noWork is the step of a direction a device does not have.
func noWork() (sim.Duration, func(), bool) { return 0, nil, false }

// polledRx is the received-packet callback of one input port (SMP: of
// one steered rx queue), in the per-packet convention of the
// unmodified path's loops: the packet between the step that takes it
// off the ring and the commit that hands it to the IP layer lives
// here, and the commit is a method value bound once at registration.
// The poller runs one unit of a device at a time.
type polledRx struct {
	r   *Router
	nic *nic.NIC
	q   int // the rx queue to drain; -1 takes from every queue

	p        *netstack.Packet
	cost     sim.Duration
	stage    prov.Stage
	commitFn func()
}

func newPolledRx(r *Router, n *nic.NIC, q int) *polledRx {
	x := &polledRx{r: r, nic: n, q: q}
	x.commitFn = x.commit
	return x
}

// step takes one packet off the ring and prices its processing to
// completion: "the received-packet callback procedures call the IP
// input processing routine directly, rather than placing received
// packets on a queue" (§6.4).
func (x *polledRx) step() (sim.Duration, func(), bool) {
	var p *netstack.Packet
	if x.q < 0 {
		p = x.nic.TakeRx()
	} else {
		p = x.nic.TakeRxQueue(x.q)
	}
	if p == nil {
		return 0, nil, false
	}
	r, c := x.r, x.r.Cfg.Costs
	r.tapMonitor(p)
	x.p = p
	if _, local := r.isLocal(p.Data); local {
		x.cost, x.stage = c.PolledRxLocalPerPkt, prov.StagePollRxLocal
	} else if r.screend != nil {
		x.cost, x.stage = c.PolledRxToScreendPerPkt, prov.StagePollRxScreend
	} else {
		x.cost, x.stage = c.PolledRxPerPkt, prov.StagePollRxForward
		//lkvet:allow lockguard unlocked cost-model peek at the flow cache; the authoritative lookup runs in the locked commit
		if r.fastPathHit(p.Data) {
			x.cost -= c.FastPathSavings
		}
	}
	return x.cost, x.commitFn, true
}

// commit runs under the device lock: core.Poller posts it with
// PostLocked(Device.Lock), r.netLock on SMP; the uniprocessor poller
// is fully serialized.
//
//lkvet:requires netLock
func (x *polledRx) commit() {
	r, p := x.r, x.p
	x.p = nil
	r.invest(p, prov.CenterIPInput, x.cost)
	r.observe(x.stage, p)
	switch x.stage {
	case prov.StagePollRxLocal:
		r.deliverLocal(p)
	case prov.StagePollRxScreend:
		r.screend.submit(p)
	default:
		r.forwardFrame(p)
	}
}

// polledTx is a port's transmitted-packet callback: reclaim one
// descriptor and refill the transmitter. It carries no per-unit state.
type polledTx struct {
	r        *Router
	port     *netPort
	commitFn func()
}

func newPolledTx(r *Router, port *netPort) *polledTx {
	x := &polledTx{r: r, port: port}
	x.commitFn = x.commit
	return x
}

func (x *polledTx) step() (sim.Duration, func(), bool) {
	if !x.port.nic.ReclaimTx() {
		return 0, nil, false
	}
	return x.r.Cfg.Costs.PolledTxPerPkt, x.commitFn, true
}

// commit runs under the device lock (r.netLock) on SMP; the
// uniprocessor poller registers devices with no lock but runs
// serialized.
//
//lkvet:requires netLock
func (x *polledTx) commit() { x.r.ifStart(x.port) }

// attachQueueFeedback applies the §6.6.1 queue-state feedback technique
// to an arbitrary queue — "the same queue-state feedback technique could
// be applied to other queues in the system, such as ... packet filter
// queues". Watermarks are set at 3/4 and 1/4 of capacity; the returned
// controller inhibits input through the shared gate. progressHook must
// be called by the queue's consumer (see Feedback.Progress).
func (m *polledPath) attachQueueFeedback(q *queue.Queue, source string) *core.Feedback {
	fb := core.NewFeedback(m.r.Eng, m.gate, source, m.r.Cfg.FeedbackTimeout)
	high := q.Cap() * 3 / 4
	low := q.Cap() / 4
	if low < 1 {
		low = 1
	}
	if high <= low {
		high = low + 1
	}
	q.SetWatermarks(high, low)
	q.OnHigh = fb.QueueHigh
	q.OnLow = fb.QueueLow
	return fb
}

// onTick counts hardclock ticks into cycle-limiter periods and runs
// the interface watchdog.
func (m *polledPath) onTick(ticks uint64) {
	if m.limiter != nil {
		period := uint64(m.limiter.Period / m.r.Cfg.ClockTick)
		if period == 0 {
			period = 1
		}
		if ticks%period == 0 {
			m.limiter.Tick()
		}
	}
	m.watchdog()
}

// watchdog recovers, once per hardclock tick, from the two ways the
// event-driven polled path can settle with work it will never notice —
// the analogue of BSD's if_watchdog slow-timeout. Both states were
// found by the schedule explorer (internal/explore) and are otherwise
// permanent: no future event re-examines them.
//
// Receive side: a ring holds frames, receive interrupts are unmasked,
// yet no interrupt is pending. The only way in is a lost interrupt
// assertion (fault-injected; in a fault-free run unmasked+backlogged
// implies asserted, so the watchdog never fires). RxIntrDone re-asserts
// exactly as the driver's re-enable path would have.
//
// Transmit side: an ifqueue holds frames while every transmit
// descriptor sits completed-but-unreclaimed. Reclaim is lazy — done by
// poller rounds or the transmit interrupt — but the transmit interrupt
// was already latched pending when the last completions arrived, so
// with receive quiet nothing ever schedules the poller again
// (TxCompletedLen == TxRing implies nothing is queued or in flight, so
// no completion event is coming either). One poller round reclaims the
// ring and restarts output.
//
// Gated off while input is inhibited: the gate's OnChange hook handles
// recovery at reopen, and a closed gate means the system is already
// fielding feedback/cycle-limit pressure, not wedged.
func (m *polledPath) watchdog() {
	if m.clocked || !m.gate.Open() {
		return
	}
	if m.r.smp() {
		m.watchdogSMP()
		return
	}
	if m.poller.Scheduled() {
		return
	}
	for _, in := range m.r.Ins {
		if in.RxLen() > 0 && !in.RxPending() && in.RxInterruptEnabled() {
			in.RxIntrDone()
			return
		}
	}
	for _, port := range m.r.ports {
		//lkvet:allow lockguard uniprocessor branch (the SMP case returned above): one core, nothing to race with
		if !port.outq.Empty() && port.nic.TxCompletedLen() == m.r.Cfg.NIC.TxRing {
			m.poller.Schedule()
			return
		}
	}
}

// watchdogSMP is the per-queue/per-poller form of the same recovery:
// each steered rx queue and each port's transmit ring is checked
// against the poller that serves it.
func (m *polledPath) watchdogSMP() {
	for _, ref := range m.rxRefs {
		if ref.pol.Scheduled() {
			continue
		}
		n := ref.port.nic
		if n.RxQueueLen(ref.q) > 0 && !n.RxQueuePending(ref.q) && n.RxInterruptEnabled() {
			n.RxQueueIntrDone(ref.q)
			return
		}
	}
	for _, port := range m.r.ports {
		pol := m.txOwner[port]
		if pol == nil || pol.Scheduled() {
			continue
		}
		//lkvet:allow lockguard racy watchdog peek from the boot CPU; a stale result only delays recovery one tick
		if !port.outq.Empty() && port.nic.TxCompletedLen() == m.r.Cfg.NIC.TxRing {
			pol.Schedule()
			return
		}
	}
}

// notifyScreendQueuePressure re-asserts queue feedback while the screend
// queue sits at or above its high watermark. This matters after a
// feedback timeout released the gate with the queue still full: the
// watermark callback will not re-fire (hysteresis), so the enqueue path
// re-raises the inhibition. Called from the enqueue path, under
// netLock on SMP.
//
//lkvet:requires netLock
func (r *Router) notifyScreendQueuePressure() {
	if r.polled == nil || r.polled.feedback == nil {
		return
	}
	if r.screendq.AboveHigh() {
		r.polled.feedback.QueueHigh()
	}
}

// notifyScreendProgress re-arms the feedback hang-recovery timer when the
// screening process handles a packet.
func (r *Router) notifyScreendProgress() {
	if r.polled != nil && r.polled.feedback != nil {
		r.polled.feedback.Progress()
	}
}
