package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/config"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/stats"
)

// textBase is where the text segment lives in the simulated address space
// for instruction-cache purposes; it is disjoint from the data segment so
// code and data contend in the shared L2 without aliasing.
const textBase uint64 = 0x4000_0000

// watchdogCycles bounds the number of cycles without a commit before the
// simulator reports a deadlock instead of spinning forever.
const watchdogCycles = 100_000

// initialWheelSize is the starting span of the completion timing wheel in
// cycles. It comfortably exceeds the worst event horizon of the default
// memory hierarchy (an L1+L2 miss to DRAM is ~30 cycles); schedule grows
// the wheel if a configuration ever schedules further ahead.
const initialWheelSize = 128

// Machine is the cycle-level timing simulator.
//
// The steady-state cycle loop is allocation-free: all per-cycle and
// per-instruction bookkeeping lives in preallocated, pooled or intrusive
// structures (the DynInst pool, the decode and reorder rings, the
// completion timing wheel, the reused SteerInfo). TestSteadyStateCycleAllocs
// enforces the invariant; ARCHITECTURE.md documents it.
type Machine struct {
	cfg     *config.Config
	prog    *prog.Program
	oracle  Oracle
	steerer Steerer

	// oracleErr latches a fetch-stage oracle failure (a replayed trace
	// exhausting mid-run); runUntil surfaces it instead of finishing on a
	// stream that diverged from what live fetch would have seen.
	oracleErr error

	hier *mem.Hierarchy
	bp   bpred.DirPredictor
	btb  *bpred.BTB
	ras  *bpred.RAS

	cycle uint64
	seq   uint64

	// Per-cluster state is flattened into value slices: one contiguous
	// block per kind instead of a pointer chase per cluster per access.
	files []regFile
	iqs   []issueQueue
	fus   []fuPool
	rt    *renameTable
	ldst  *lsq

	// rob is the reorder buffer as a ring: robHead indexes the oldest
	// in-flight instruction, robLen counts occupancy. The backing array is
	// a power of two and grows only if a configuration exceeds it.
	rob     []*DynInst
	robHead int
	robLen  int

	// decodeQ is the fetched-instruction ring (values, not pointers: a
	// fetch never allocates). dqHead indexes the oldest undispatched entry.
	decodeQ []fetched
	dqHead  int
	dqLen   int
	// fetchStep is the oracle's output slot, reused by every fetch; its
	// fields are packed into a decode-ring entry right away.
	fetchStep emu.Step

	// fetchStallUntil delays fetch (I-cache misses, post-redirect).
	fetchStallUntil uint64
	// l1iLineShift is log2 of the L1I line size when it is a power of two
	// (the universal case), -1 otherwise; fetch's per-instruction line
	// computation uses a shift instead of a 64-bit divide.
	l1iLineShift int8
	// waitBranchSeq is the ProgSeq of an unresolved mispredicted branch
	// fetch is stalled on; waitingBranch gates it.
	waitBranchSeq uint64
	waitingBranch bool
	fetchDone     bool

	// evtHead/evtTail form the completion timing wheel: slot c&mask holds
	// the intrusive list (DynInst.nextEvt) of instructions completing at
	// cycle c, in schedule order. len(evtHead) is a power of two strictly
	// greater than the furthest-ahead completion ever scheduled.
	evtHead []*DynInst
	evtTail []*DynInst

	// dynPool recycles DynInsts at commit; dispatch draws from it before
	// touching the heap.
	dynPool []*DynInst

	// steerBuf is the SteerInfo handed to the policy, reused across calls
	// (policies must not retain it; see Steerer).
	steerBuf SteerInfo

	// wakeBuf collects the registers made ready by this cycle's
	// completions; the waiter-list walks run after the whole completion
	// batch (matching the old end-of-batch queue scan, which the
	// criticality test in noteCopyArrival depends on).
	wakeBuf []wakePair

	// Per-cycle resource counters.
	dcachePortsUsed int
	busUsed         []int

	// readySample holds this cycle's per-cluster ready counts for
	// steering decisions (index = cluster).
	readySample []int

	// forcedByPC caches forcedCluster per static instruction: the datapath
	// constraint is a pure function of the instruction and the machine
	// configuration, so dispatch reads a table instead of re-deriving it.
	forcedByPC []ClusterID

	// Measurement state.
	measuring      bool
	run            stats.Run
	replicatedSum  uint64
	cyclesMeasured uint64
	committedProg  uint64
	lastCommitAt   uint64

	haltCommitted bool
	progInFlight  int
	issueBuf      []*DynInst
	loadBuf       []*DynInst

	// probe is the introspection seam (see probe.go); nil by default, and
	// every callsite is guarded so a detached machine pays one pointer
	// test per hook. The buffers below are reused across calls so probing
	// never allocates on the cycle loop.
	probe         Probe
	probeFetchSeq uint64
	probeFetchBuf FetchInfo
	probeSteerBuf SteerDecision
	probeSample   CycleSample
	// lastRedirect is the cycle of the most recent post-misprediction
	// fetch redirect (0 = never). It feeds only the probe's stall
	// taxonomy — an unconditional store keeps the hot path branch-free.
	lastRedirect uint64

	// warmed is the committed-instruction budget the last Warm call was
	// asked for; Measure adds its own budget on top so the two-phase run
	// targets the same absolute commit count as a single-loop run.
	warmed uint64

	// fastForward enables event-driven skipping of provably idle cycles
	// (on by default; see fastforward.go for the no-op predicate).
	fastForward bool
}

// nextPow2 returns the smallest power of two >= n (and >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New builds a machine running p under cfg with the given steering policy,
// fetching from a fresh functional emulator over p.
func New(cfg *config.Config, p *prog.Program, st Steerer) (*Machine, error) {
	return NewWithOracle(cfg, p, st, nil)
}

// NewWithOracle builds a machine fetching from the supplied oracle (nil
// means a fresh EmuOracle over p). The oracle's stream must have been
// produced by p — the fetch stage indexes p's text by the stream's PCs —
// and must start at the beginning of the program; see Oracle.
func NewWithOracle(cfg *config.Config, p *prog.Program, st Steerer, o Oracle) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkTextFits(len(p.Text)); err != nil {
		return nil, fmt.Errorf("core: program %q: %w", p.Name, err)
	}
	hier, err := mem.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, err
	}
	btb, err := bpred.NewBTB(cfg.BTBSets, cfg.BTBAssoc)
	if err != nil {
		return nil, err
	}
	if o == nil {
		o = EmuOracle{M: emu.New(p)}
	}
	m := &Machine{
		cfg:         cfg,
		prog:        p,
		oracle:      o,
		steerer:     st,
		hier:        hier,
		bp:          bpred.NewPaperPredictor(),
		btb:         btb,
		ras:         bpred.NewRAS(cfg.RASEntries),
		rt:          newRenameTable(cfg.NumClusters()),
		ldst:        newLSQ(cfg.MaxInFlight),
		rob:         make([]*DynInst, nextPow2(4*cfg.MaxInFlight)),
		decodeQ:     make([]fetched, nextPow2(4*cfg.FetchWidth)),
		evtHead:     make([]*DynInst, initialWheelSize),
		evtTail:     make([]*DynInst, initialWheelSize),
		busUsed:     make([]int, cfg.NumClusters()),
		readySample: make([]int, cfg.NumClusters()),
		fastForward: true,
	}
	m.files = make([]regFile, 0, cfg.NumClusters())
	m.iqs = make([]issueQueue, 0, cfg.NumClusters())
	m.fus = make([]fuPool, 0, cfg.NumClusters())
	for _, cl := range cfg.Clusters {
		m.files = append(m.files, *newRegFile(cl.PhysRegs))
		m.iqs = append(m.iqs, *newIssueQueue(cl, cfg.Mode))
		m.fus = append(m.fus, *newFUPool(cl, cfg.Lat))
	}
	if err := m.rt.initArchState(m.files); err != nil {
		return nil, err
	}
	// IssueWidth is per-cluster configuration, constant for the machine's
	// lifetime: fill the reused SteerInfo once instead of per instruction.
	for c := 0; c < cfg.NumClusters(); c++ {
		m.steerBuf.IssueWidth[c] = cfg.Clusters[c].IssueWidth
	}
	m.l1iLineShift = -1
	if lb := cfg.Mem.L1I.LineBytes; lb > 0 && lb&(lb-1) == 0 {
		m.l1iLineShift = int8(bits.TrailingZeros(uint(lb)))
	}
	m.forcedByPC = make([]ClusterID, len(p.Text))
	for pc, in := range p.Text {
		m.forcedByPC[pc] = m.forcedCluster(in)
	}
	m.run.Scheme = st.Name()
	m.run.Benchmark = p.Name
	m.run.Steered = make([]uint64, cfg.NumClusters())
	return m, nil
}

// checkTextFits rejects a program text too long for the decode ring's
// 32-bit PCs.
func checkTextFits(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("%d instructions exceed the decode ring's %d-instruction PC range", n, math.MaxInt32)
	}
	return nil
}

// fetched is a decoded instruction waiting for dispatch: one decode-ring
// entry. The ring is the one core structure whose entry count is unbounded
// (ARCHITECTURE.md, "The allocation-free hot loop"), so an entry keeps only
// what dispatch and the probe read. The static instruction is re-derived as
// prog.Text[pc] (the oracle contract makes the stream's PCs index the
// program), and the branch outcome is consumed by the predictors at fetch.
// TestDecodeEntrySize pins the size.
type fetched struct {
	seq         uint64 // the oracle's sequence number (DynInst.ProgSeq)
	memAddr     uint64 // effective address of a load or store
	availableAt uint64
	// probeID is the probe-scoped fetch id (see Probe.Fetch); zero while
	// no probe is attached.
	probeID uint64
	// pc fits: NewWithOracle rejects programs longer than MaxInt32.
	pc         int32
	mispredict bool
	// steered caches the policy's decision: steering happens once at
	// decode, so dispatch retries after a structural stall must not
	// consult the policy (and update its tables) again.
	steered bool
	target  ClusterID
}

// inst returns the static instruction of a decode-ring entry.
//
//dca:hotpath
func (m *Machine) inst(fi *fetched) isa.Inst { return m.prog.Text[fi.pc] }

// Cycle returns the current cycle number.
func (m *Machine) Cycle() uint64 { return m.cycle }

// CommittedInstructions returns committed program instructions (copies
// excluded).
func (m *Machine) CommittedInstructions() uint64 { return m.committedProg }

// --- Allocation-free plumbing: pools, rings, and the timing wheel ---

// allocDyn takes a DynInst from the recycle pool, or the heap when the
// pool is dry (only before the in-flight population reaches steady state).
//
//dca:hotpath
func (m *Machine) allocDyn() *DynInst {
	if n := len(m.dynPool); n > 0 {
		d := m.dynPool[n-1]
		m.dynPool = m.dynPool[:n-1]
		return d
	}
	//dca:allow(noalloc: pool-dry fallback — runs only while the in-flight population is still growing toward steady state, which TestSteadyStateCycleAllocs pins)
	return new(DynInst)
}

// freeDyn recycles a committed DynInst. The pointer must not be used after
// this call (tracers are invoked before commit recycles; see Tracer).
//
//dca:hotpath
func (m *Machine) freeDyn(d *DynInst) {
	m.dynPool = append(m.dynPool, d)
}

// robPush appends to the reorder buffer ring.
//
//dca:hotpath
func (m *Machine) robPush(d *DynInst) {
	if m.robLen == len(m.rob) {
		m.robGrow()
	}
	m.rob[(m.robHead+m.robLen)&(len(m.rob)-1)] = d
	m.robLen++
}

// robFront returns the oldest in-flight instruction.
//
//dca:hotpath
func (m *Machine) robFront() *DynInst { return m.rob[m.robHead] }

// robPop removes the oldest in-flight instruction.
//
//dca:hotpath
func (m *Machine) robPop() {
	m.rob[m.robHead] = nil
	m.robHead = (m.robHead + 1) & (len(m.rob) - 1)
	m.robLen--
}

// robAt returns the i-th oldest in-flight instruction (0 = oldest).
//
//dca:hotpath
func (m *Machine) robAt(i int) *DynInst {
	return m.rob[(m.robHead+i)&(len(m.rob)-1)]
}

func (m *Machine) robGrow() {
	grown := make([]*DynInst, len(m.rob)*2)
	for i := 0; i < m.robLen; i++ {
		grown[i] = m.robAt(i)
	}
	m.rob = grown
	m.robHead = 0
}

// dqPush returns the slot for a newly fetched instruction.
//
//dca:hotpath
func (m *Machine) dqPush() *fetched {
	if m.dqLen == len(m.decodeQ) {
		m.dqGrow()
	}
	fi := &m.decodeQ[(m.dqHead+m.dqLen)&(len(m.decodeQ)-1)]
	m.dqLen++
	return fi
}

// dqGrow doubles the decode-queue ring (amortized, cold).
func (m *Machine) dqGrow() {
	grown := make([]fetched, len(m.decodeQ)*2)
	for i := 0; i < m.dqLen; i++ {
		grown[i] = m.decodeQ[(m.dqHead+i)&(len(m.decodeQ)-1)]
	}
	m.decodeQ = grown
	m.dqHead = 0
}

// dqFront returns the oldest undispatched fetched instruction.
//
//dca:hotpath
func (m *Machine) dqFront() *fetched { return &m.decodeQ[m.dqHead] }

// dqPop consumes the front of the decode queue.
//
//dca:hotpath
func (m *Machine) dqPop() {
	m.dqHead = (m.dqHead + 1) & (len(m.decodeQ) - 1)
	m.dqLen--
}

// schedule inserts d into the completion wheel at d.completeAt. Events are
// always strictly in the future, and the wheel is kept wider than the
// furthest horizon, so slot collisions between different cycles cannot
// occur; within a cycle, insertion order is preserved (tail append).
//
//dca:hotpath
func (m *Machine) schedule(d *DynInst) {
	for d.completeAt-m.cycle >= uint64(len(m.evtHead)) {
		m.growWheel()
	}
	slot := d.completeAt & uint64(len(m.evtHead)-1)
	d.nextEvt = nil
	if tail := m.evtTail[slot]; tail != nil {
		tail.nextEvt = d
	} else {
		m.evtHead[slot] = d
	}
	m.evtTail[slot] = d
}

// growWheel doubles the timing wheel. Pending events occupy one distinct
// completion cycle per slot (the wheel invariant), so re-slotting each
// old chain wholesale preserves per-cycle insertion order.
func (m *Machine) growWheel() {
	oldHead := m.evtHead
	m.evtHead = make([]*DynInst, len(oldHead)*2)
	m.evtTail = make([]*DynInst, len(oldHead)*2)
	for _, d := range oldHead {
		if d == nil {
			continue
		}
		slot := d.completeAt & uint64(len(m.evtHead)-1)
		m.evtHead[slot] = d
		for ; d != nil; d = d.nextEvt {
			m.evtTail[slot] = d
		}
	}
}

// Run simulates until max committed program instructions (0 = until HALT)
// and returns the measurement record, which the caller owns.
func (m *Machine) Run(max uint64) (*stats.Run, error) {
	return m.RunWithWarmup(0, max)
}

// RunWithWarmup simulates warmup committed instructions without measuring
// (caches and predictors stay warm), resets the statistics, then measures
// the next measure instructions (0 = until HALT). It is Warm followed by
// Measure; warm-state checkpointing (see Checkpoint) splits the two so a
// grid can pay for the warm phase once per reusable key. The returned
// record is the caller's, as Measure's is.
func (m *Machine) RunWithWarmup(warmup, measure uint64) (*stats.Run, error) {
	if err := m.Warm(warmup); err != nil {
		return nil, err
	}
	return m.Measure(measure)
}

// Warm simulates until warmup program instructions have committed (or HALT),
// without measuring: caches, predictors and steering state warm up exactly
// as they would under RunWithWarmup. A commit batch is never split, so the
// machine may overshoot warmup by up to the retire width minus one; the
// requested budget is recorded so Measure targets the same absolute commit
// count an unbroken run would.
func (m *Machine) Warm(warmup uint64) error {
	m.warmed = warmup
	if warmup == 0 {
		return nil
	}
	m.measuring = false
	return m.runUntil(warmup)
}

// Measure measures the next measure instructions (0 = until HALT) after a
// Warm call (or from reset on a fresh machine) and finishes the record.
// The record is a detached copy owned by the caller: it does not change
// when the machine runs on, and it does not keep the machine reachable.
func (m *Machine) Measure(measure uint64) (*stats.Run, error) {
	target := uint64(0)
	if measure > 0 {
		target = m.warmed + measure
	}
	return m.measureTo(target)
}

// measureTo turns on measurement and simulates until target committed
// program instructions (0 = until HALT), finishing the record. The target
// is absolute — Measure passes warmed+measure — so a warm phase that
// overshot its budget measures to the same cycle an unbroken run would.
// A machine that halted during warm-up never begins measuring, matching
// the single-loop behaviour this decomposition replaced.
func (m *Machine) measureTo(target uint64) (*stats.Run, error) {
	if !m.haltCommitted {
		m.measuring = true
		m.beginMeasurement()
	}
	if err := m.runUntil(target); err != nil {
		return nil, err
	}
	m.finishMeasurement()
	return m.detachedRun(), nil
}

// detachedRun returns a copy of the measurement record that shares no
// memory with the machine: the caller owns it, a later Warm or Measure
// leaves it unchanged, and holding it does not keep the machine (and its
// decode ring, caches and predictor tables) reachable.
func (m *Machine) detachedRun() *stats.Run {
	r := m.run
	r.Steered = append([]uint64(nil), m.run.Steered...)
	return &r
}

// runUntil is the simulation loop shared by the warm and measure phases:
// step — fast-forwarding across provably idle stretches — until target
// committed program instructions (0 = until HALT), with the no-commit
// watchdog.
func (m *Machine) runUntil(target uint64) error {
	for !m.haltCommitted && (target == 0 || m.committedProg < target) {
		if m.fastForward {
			m.tryFastForward()
		}
		if err := m.step(); err != nil {
			return err
		}
		// An oracle failure ends the run even when this same cycle reached
		// the commit target: live fetch would still have run this cycle,
		// updating I-cache and predictor statistics, so a result produced
		// past the failure point cannot be trusted to be bit-identical.
		if m.oracleErr != nil {
			return m.oracleErr
		}
		if m.cycle-m.lastCommitAt > watchdogCycles {
			return fmt.Errorf("core: no commit for %d cycles at cycle %d (deadlock?)", watchdogCycles, m.cycle)
		}
	}
	return nil
}

func (m *Machine) beginMeasurement() {
	m.run.Cycles = 0
	m.run.Instructions = 0
	m.run.Copies = 0
	m.run.CriticalCopies = 0
	m.run.Balance = stats.BalanceHist{}
	for c := range m.run.Steered {
		m.run.Steered[c] = 0
	}
	m.run.Mispredicts = 0
	m.run.Branches = 0
	m.replicatedSum = 0
	m.cyclesMeasured = 0
	m.hier.L1D.Stat = mem.Stats{}
	m.hier.L1I.Stat = mem.Stats{}
}

func (m *Machine) finishMeasurement() {
	m.run.Cycles = m.cyclesMeasured
	if m.cyclesMeasured > 0 {
		m.run.ReplicatedRegsAvg = float64(m.replicatedSum) / float64(m.cyclesMeasured)
	}
	m.run.L1DMissRate = m.hier.L1D.Stat.MissRate()
	m.run.L1IMissRate = m.hier.L1I.Stat.MissRate()
}

// step simulates one cycle.
//
//dca:hotpath
func (m *Machine) step() error {
	// 1. Reset per-cycle resources.
	m.dcachePortsUsed = 0
	for i := range m.busUsed {
		m.busUsed[i] = 0
	}
	for c := range m.fus {
		m.fus[c].newCycle()
	}

	// 2. Commit (uses D-cache ports for stores).
	retired := m.commit()

	// 3. Completions and wakeup.
	m.complete()

	// 4. Sample workload balance and inform the steering policy.
	m.sample()

	// 5. Start eligible memory accesses.
	m.memStep()

	// 6. Issue per cluster (copies consume issue slots and buses).
	m.issue()

	// 7. Dispatch: steer, rename, insert copies.
	if err := m.dispatch(); err != nil {
		return err
	}

	// 8. Fetch from the oracle stream.
	m.fetch()

	// 9. Per-cycle introspection sample (no-op with no probe attached).
	m.probeCycle(1, retired)

	if m.measuring {
		m.cyclesMeasured++
	}
	m.cycle++
	return nil
}

// --- Fetch ---

//dca:hotpath
func lineOf(pc int, lineBytes int) uint64 {
	return (textBase + uint64(pc)*isa.Word) / uint64(lineBytes)
}

//dca:hotpath
func (m *Machine) fetch() {
	if m.fetchDone || m.waitingBranch || m.cycle < m.fetchStallUntil {
		return
	}
	lineBytes := m.cfg.Mem.L1I.LineBytes
	lineShift := m.l1iLineShift
	curLine := uint64(0)
	haveLine := false
	for n := 0; n < m.cfg.FetchWidth; n++ {
		if m.oracle.Halted() {
			m.fetchDone = true
			return
		}
		pc := m.oracle.PC()
		if pc < 0 {
			// The stream ended without a HALT (a replayed trace ran out).
			// Fail before touching the I-cache: continuing with a garbage
			// PC would perturb measured miss rates, and ending quietly
			// would yield a silently short run.
			m.fetchDone = true
			m.oracleErr = ErrOracleExhausted
			return
		}
		var line uint64
		if lineShift >= 0 {
			line = (textBase + uint64(pc)*isa.Word) >> uint(lineShift)
		} else {
			line = lineOf(pc, lineBytes)
		}
		if !haveLine || line != curLine {
			lat := m.hier.L1I.Access(textBase+uint64(pc)*isa.Word, false)
			if lat > m.cfg.Mem.L1I.HitLatency {
				// Miss: the line arrives after the miss latency; retry
				// then (the refill makes the next access hit).
				m.fetchStallUntil = m.cycle + uint64(lat-1)
				return
			}
			curLine, haveLine = line, true
		}
		// The oracle writes into the machine's reused step, which is
		// packed into a ring slot right after. A live emulator only errors
		// on malformed programs (a runaway indirect jump); a replayer also
		// errors on a truncated stream. Either way the stream cannot
		// continue: latch the error so the run fails loudly instead of
		// finishing on a quietly shortened stream.
		st := &m.fetchStep
		if err := m.oracle.StepInto(st); err != nil {
			m.fetchDone = true
			m.oracleErr = err
			return
		}
		fi := m.dqPush()
		fi.seq = st.Seq
		fi.memAddr = st.MemAddr
		fi.availableAt = m.cycle + uint64(m.cfg.FrontEndDepth)
		fi.probeID = 0
		fi.pc = int32(st.PC)
		fi.mispredict = false
		fi.steered = false
		op := st.Inst.Op
		if op == isa.HALT {
			m.fetchDone = true
		}
		if op.IsBranch() {
			fi.mispredict = m.predictBranch(st)
			if m.measuring {
				m.run.Branches++
				if fi.mispredict {
					m.run.Mispredicts++
				}
			}
		}
		m.probeFetched(fi)
		if fi.mispredict {
			// Fetch stalls until the branch resolves; wrong-path
			// instructions are not simulated (see package comment).
			m.waitingBranch = true
			m.waitBranchSeq = st.Seq
			return
		}
		if op.IsBranch() && st.Taken {
			// At most one taken branch per fetch group.
			return
		}
	}
}

// predictBranch runs the predictors for a fetched control transfer and
// reports whether it mispredicts.
//
//dca:hotpath
func (m *Machine) predictBranch(st *emu.Step) bool {
	op := st.Inst.Op
	pc := st.PC
	switch {
	case op.IsCondBranch():
		pred := m.bp.Predict(pc)
		m.bp.Update(pc, st.Taken)
		return pred != st.Taken
	case op == isa.J:
		return false // direct target, known at decode
	case op == isa.JAL:
		m.ras.Push(pc + 1)
		return false
	case op == isa.JALR:
		m.ras.Push(pc + 1)
		target, ok := m.btb.Lookup(pc)
		m.btb.Update(pc, st.NextPC)
		return !ok || target != st.NextPC
	default: // JR: return prediction via RAS when it targets r31
		if st.Inst.Rs1 == isa.R(31) {
			target, ok := m.ras.Pop()
			return !ok || target != st.NextPC
		}
		target, ok := m.btb.Lookup(pc)
		m.btb.Update(pc, st.NextPC)
		return !ok || target != st.NextPC
	}
}

// --- Dispatch ---

// forcedCluster returns the datapath constraint for an instruction,
// derived from the machine's actual functional-unit placement: when
// exactly one cluster can execute the operation's unit class (on the
// paper's asymmetric machine, complex-integer ops must run in the integer
// cluster and anything touching an FP register in the FP cluster), the
// placement is forced there; on the base machine steerable integer code is
// also integer-cluster-only; on symmetric machines (config.Symmetric,
// config.ClusteredN) nothing is forced. AnyCluster means the steering
// policy chooses.
//
//dca:hotpath
func (m *Machine) forcedCluster(in isa.Inst) ClusterID {
	if m.cfg.NumClusters() == 1 {
		return IntCluster
	}
	if in.Op.Class() == isa.ClassComplexInt {
		if c := m.capableClusters(in.Op).Single(); c != AnyCluster {
			return c
		}
	}
	touchesFP := false
	if d, ok := in.Dst(); ok && d.IsFP() {
		touchesFP = true
	} else {
		var srcsBuf [2]isa.Reg
		for _, r := range in.Srcs(srcsBuf[:0]) {
			if r.IsFP() {
				touchesFP = true
				break
			}
		}
	}
	if touchesFP {
		var fp ClusterSet
		for c := 0; c < m.cfg.NumClusters(); c++ {
			if m.cfg.Clusters[c].FPALUs > 0 {
				fp = fp.Add(ClusterID(c))
			}
		}
		if c := fp.Single(); c != AnyCluster {
			return c
		}
	}
	if !m.cfg.FPClusterSimpleInt && !touchesFP && in.Op.Class() != isa.ClassComplexInt {
		return IntCluster
	}
	return AnyCluster
}

// nearestIn returns the cluster in set s closest to `to` by copy latency
// (ties to the lowest cluster index), excluding `to` itself; AnyCluster
// when the set holds no other cluster.
//
//dca:hotpath
func (m *Machine) nearestIn(s ClusterSet, to ClusterID) ClusterID {
	best, bestDist := AnyCluster, 0
	for c := 0; c < m.cfg.NumClusters(); c++ {
		id := ClusterID(c)
		if id == to || !s.Has(id) {
			continue
		}
		d := m.cfg.CopyLatencyBetween(c, int(to))
		if best == AnyCluster || d < bestDist {
			best, bestDist = id, d
		}
	}
	return best
}

// capableClusters returns the set of clusters whose functional units can
// execute op.
//
//dca:hotpath
func (m *Machine) capableClusters(op isa.Opcode) ClusterSet {
	var s ClusterSet
	for c := 0; c < m.cfg.NumClusters(); c++ {
		if m.fus[c].CanEverIssue(op) {
			s = s.Add(ClusterID(c))
		}
	}
	return s
}

// fifoCluster implements the joint cluster+FIFO half of the
// Palacharla/Jouppi/Smith heuristic: prefer a cluster holding a FIFO whose
// tail is the producer of one of the instruction's pending sources (the
// dependence chain continues in order there); otherwise take the allowed
// cluster with the most empty FIFOs, falling back to the policy's choice.
//
//dca:hotpath
func (m *Machine) fifoCluster(in isa.Inst, forced, fallback ClusterID) ClusterID {
	var allowed [config.MaxClusters]ClusterID
	n := 0
	if forced != AnyCluster {
		allowed[0], n = forced, 1
	} else {
		for c := 0; c < m.cfg.NumClusters(); c++ {
			allowed[n] = ClusterID(c)
			n++
		}
	}
	var srcsBuf [2]isa.Reg
	srcs := in.Srcs(srcsBuf[:0])
	for i := 0; i < n; i++ {
		c := allowed[i]
		q := &m.iqs[c]
		for f := range q.fifos {
			tail := q.FIFOTail(f)
			if tail == nil || tail.destPhys == noPhys || len(q.fifos[f]) >= q.fifoDepth {
				continue
			}
			for _, r := range srcs {
				if p, ok := m.rt.lookup(r, c); ok && p == tail.destPhys && !m.files[c].Ready(p) {
					return c
				}
			}
		}
	}
	best, bestEmpty := fallback, -1
	for i := 0; i < n; i++ {
		c := allowed[i]
		empties := 0
		for f := range m.iqs[c].fifos {
			if len(m.iqs[c].fifos[f]) == 0 {
				empties++
			}
		}
		if empties > bestEmpty {
			bestEmpty, best = empties, c
		}
	}
	return best
}

// copyPlan describes one inter-cluster copy to insert for a source operand.
type copyPlan struct {
	srcIdx  int // which source of the consumer
	logical isa.Reg
	from    ClusterID
	fromReg physReg
}

// resolveTarget maps an already-steered front instruction (static
// instruction in) to its final placement: out-of-range policy answers clamp
// to the integer cluster, the capability safety net moves operations to a
// cluster that can execute them (a policy on a partially symmetric machine
// could otherwise deadlock an FP multiply in a cluster with only FP adders;
// the nearest capable cluster, by copy distance with ties to the lowest
// index, takes over), and in FIFO mode the joint cluster+FIFO heuristic of
// Palacharla/Jouppi/Smith runs with the policy's choice as tie-break. It is
// pure: fast-forward's idleness predicate shares it with dispatch.
//
//dca:hotpath
func (m *Machine) resolveTarget(fi *fetched, in isa.Inst) ClusterID {
	target := fi.target
	if target < 0 || int(target) >= m.cfg.NumClusters() {
		target = IntCluster
	}
	if !m.fus[target].CanEverIssue(in.Op) && m.cfg.NumClusters() > 1 {
		if c := m.nearestIn(m.capableClusters(in.Op), target); c != AnyCluster {
			target = c
		}
	}
	if m.cfg.Mode == config.IQFIFO {
		target = m.fifoCluster(in, m.forcedByPC[fi.pc], target)
	}
	return target
}

// planCopies computes the inter-cluster copies that placing fi (static
// instruction in) on target requires: one per source operand without a
// valid mapping in the target cluster, sourced from the nearest cluster
// holding the value (by copy latency, ties to the lowest index; on the
// two-cluster machine simply the other cluster). An instruction reading the
// same remote register twice needs only one copy. It is pure — reads of the
// map table only — and the error cases are dispatch-time invariant
// violations.
//
//dca:hotpath
func (m *Machine) planCopies(fi *fetched, in isa.Inst, target ClusterID) (plans [2]copyPlan, nPlans int, err error) {
	var srcs [2]isa.Reg
	nsrc := len(in.Srcs(srcs[:0]))
planSrcs:
	for i := 0; i < nsrc; i++ {
		if _, ok := m.rt.lookup(srcs[i], target); ok {
			continue
		}
		for j := 0; j < nPlans; j++ {
			if plans[j].logical == srcs[i] {
				continue planSrcs
			}
		}
		from := m.nearestIn(m.rt.home(srcs[i]), target)
		if from == AnyCluster {
			return plans, 0, fmt.Errorf("core: register %v mapped nowhere at PC %d", srcs[i], fi.pc)
		}
		p, ok := m.rt.lookup(srcs[i], from)
		if !ok {
			return plans, 0, fmt.Errorf("core: register %v mapped nowhere at PC %d", srcs[i], fi.pc)
		}
		plans[nPlans] = copyPlan{srcIdx: i, logical: srcs[i], from: from, fromReg: p}
		nPlans++
	}
	return plans, nPlans, nil
}

// dispatchBlocked is the structural resource check: in-flight window for
// the program instruction (copies ride along in the ROB for ordering and
// register reclamation but, as in the paper, compete only for issue slots,
// queue entries and registers — not window capacity), destination
// registers (the copies' dests plus the instruction's own), IQ slots per
// cluster, and an LSQ slot for memory operations. It is pure and consumes
// no sequence number; fast-forward's idleness predicate shares it with
// dispatch, which keeps the two in lock-step.
//
//dca:hotpath
func (m *Machine) dispatchBlocked(in isa.Inst, target ClusterID, plans *[2]copyPlan, nPlans int) bool {
	if m.progInFlight+1 > m.cfg.MaxInFlight {
		return true
	}
	if m.files[target].FreeCount() < nPlans+1 {
		return true
	}
	var iqNeed [config.MaxClusters]int
	iqNeed[target]++
	for j := 0; j < nPlans; j++ {
		iqNeed[plans[j].from]++
	}
	for c := 0; c < m.cfg.NumClusters(); c++ {
		if need := iqNeed[c]; need > 0 && m.iqs[c].Free() < need {
			return true
		}
	}
	if in.Op.IsMem() && m.ldst.Free() < 1 {
		return true
	}
	return false
}

//dca:hotpath
func (m *Machine) dispatch() error {
	width := m.cfg.DecodeWidth
	for width > 0 && m.dqLen > 0 {
		fi := m.dqFront()
		if fi.availableAt > m.cycle {
			return nil
		}
		in := m.inst(fi)
		forced := m.forcedByPC[fi.pc]

		// Build the steering view and consult the policy for every
		// program instruction (it maintains its tables in decode order).
		if !fi.steered {
			info := m.steerInfo(fi, in, forced)
			policy := m.steerer.Steer(info)
			target := policy
			if forced != AnyCluster {
				target = forced
			}
			fi.steered = true
			fi.target = target
			m.probeSteered(fi, in, forced, policy)
		}
		target := m.resolveTarget(fi, in)

		// Plan the copies this placement requires.
		plans, nPlans, err := m.planCopies(fi, in, target)
		if err != nil {
			return err
		}
		if nPlans > 0 && m.cfg.InterClusterBuses == 0 {
			return fmt.Errorf("core: copy required but no inter-cluster buses (PC %d, %v)", fi.pc, in)
		}

		if m.dispatchBlocked(in, target, &plans, nPlans) {
			return nil
		}

		// Dispatch the copies first (they are older in dependence order).
		// If dispatch stalls partway (e.g. no FIFO slot), the copies
		// already inserted stay valid: the next attempt finds the
		// replicated mappings present and plans no duplicates.
		d := m.newDynInst(fi, in)
		d.Cluster = target
		for j := 0; j < nPlans; j++ {
			// srcViaCopy feeds only the probe's stall taxonomy (copy-wait
			// vs operand-wait); the write is unconditional to keep the hot
			// path branch-free, and nothing the simulation computes reads it.
			d.srcViaCopy[plans[j].srcIdx] = true
			if _, ok := m.insertCopy(d, plans[j], target); !ok {
				// FIFO-slot exhaustion: stall this cycle. The abandoned
				// skeleton was never enqueued anywhere, so recycle it (its
				// consumed sequence number stays consumed, as it always
				// has).
				m.freeDyn(d)
				return nil
			}
		}
		// Rename sources in the target cluster.
		var srcs [2]isa.Reg
		nsrc := len(in.Srcs(srcs[:0]))
		for i := 0; i < nsrc; i++ {
			p, ok := m.rt.lookup(srcs[i], target)
			if !ok {
				return fmt.Errorf("core: source %v unmapped after copy insertion", srcs[i])
			}
			d.srcPhys[i] = p
			d.srcReady[i] = m.files[target].Ready(p)
		}
		d.numSrcs = nsrc
		// FIFO placement is decided before the destination rename so a
		// stall here leaves the map table untouched.
		if m.cfg.Mode == config.IQFIFO {
			f, ok := m.iqs[target].ChooseFIFO(d)
			if !ok {
				m.freeDyn(d)
				return nil
			}
			d.fifo = f
		}
		// Rename destination.
		if dst, ok := in.Dst(); ok {
			p, okAlloc := m.files[target].Alloc()
			if !okAlloc {
				return fmt.Errorf("core: register file %v exhausted after reservation check", target)
			}
			d.destPhys = p
			d.destLogical = dst
			d.prevMapping, d.prevMask = m.rt.redefine(dst, target, p)
		}
		if in.Op.IsMem() {
			m.ldst.Add(d)
		}
		m.robPush(d)
		m.progInFlight++
		m.iqs[target].Add(d)
		m.probeEvent(EvDispatch, d)
		if m.measuring {
			m.run.Steered[target]++
		}
		m.dqPop()
		width--
	}
	return nil
}

// newDynInst builds the DynInst skeleton for a fetched program instruction
// (in is its static instruction).
//
//dca:hotpath
func (m *Machine) newDynInst(fi *fetched, in isa.Inst) *DynInst {
	d := m.allocDyn()
	// Zero-then-assign rather than a struct literal: the literal builds a
	// temporary DynInst and copies it, twice the memory traffic of a clear
	// plus direct field stores on this per-instruction path.
	*d = DynInst{}
	d.Seq = m.seq
	d.ProgSeq = fi.seq
	d.PC = int(fi.pc)
	d.Inst = in
	d.destPhys = noPhys
	d.prevMapping = noPrevMapping()
	d.isLoad = in.Op.IsLoad()
	d.isStore = in.Op.IsStore()
	d.memAddr = fi.memAddr
	d.memWidth = in.Op.MemWidth()
	d.isBranch = in.Op.IsBranch()
	d.mispredicted = fi.mispredict
	d.state = stateWaiting
	d.readyCycle = m.cycle
	d.FetchID = fi.probeID
	m.seq++
	return d
}

// insertCopy creates and dispatches the copy instruction moving cp.logical
// from cp.from into target, updating the map table (replication).
//
//dca:hotpath
func (m *Machine) insertCopy(consumer *DynInst, cp copyPlan, target ClusterID) (*DynInst, bool) {
	p, ok := m.files[target].Alloc()
	if !ok {
		return nil, false
	}
	cpy := m.allocDyn()
	*cpy = DynInst{}
	cpy.Seq = m.seq
	cpy.ProgSeq = consumer.ProgSeq
	cpy.PC = consumer.PC
	cpy.IsCopy = true
	cpy.SrcCluster = cp.from
	cpy.Cluster = target
	cpy.numSrcs = 1
	cpy.destPhys = p
	cpy.destLogical = cp.logical
	cpy.prevMapping = noPrevMapping()
	cpy.state = stateWaiting
	cpy.readyCycle = m.cycle
	m.seq++
	cpy.srcPhys[0] = cp.fromReg
	cpy.srcReady[0] = m.files[cp.from].Ready(cp.fromReg)
	// In FIFO mode copies bypass the FIFOs (issueQueue.Add places them in
	// the bus-interface buffer), so no FIFO slot is chosen here.
	// The copied value now also lives in the target cluster: record the
	// replicated mapping so later consumers there reuse it.
	m.rt.setMapping(cp.logical, target, p)
	m.robPush(cpy)
	m.iqs[cp.from].Add(cpy)
	if m.probe != nil {
		// Copies never pass through fetch; give them their own fetch id so
		// pipeline-trace exports can render them as distinct rows.
		m.probeFetchSeq++
		cpy.FetchID = m.probeFetchSeq
	}
	m.probeEvent(EvCopyInserted, cpy)
	if m.measuring {
		m.run.Copies++
	}
	return cpy, true
}

// steerInfo assembles the policy's decode-time view of fi (static
// instruction in) in the machine's reused buffer (policies must not retain
// it across calls).
//
//dca:hotpath
func (m *Machine) steerInfo(fi *fetched, in isa.Inst, forced ClusterID) *SteerInfo {
	info := &m.steerBuf
	// Field-wise reset, not a struct literal: zeroing the full per-cluster
	// arrays every instruction is measurable, and only the first
	// NumClusters (resp. NumSrcs) entries are meaningful by contract.
	info.Cycle = m.cycle
	info.PC = int(fi.pc)
	info.Inst = in
	info.Forced = forced
	info.NumClusters = m.cfg.NumClusters()
	info.NumSrcs = 0
	var srcsBuf [2]isa.Reg
	for _, r := range in.Srcs(srcsBuf[:0]) {
		if info.NumSrcs >= 2 {
			break
		}
		i := info.NumSrcs
		info.SrcReg[i] = r
		info.SrcIn[i] = m.rt.home(r)
		info.NumSrcs++
	}
	for c := 0; c < m.cfg.NumClusters(); c++ {
		info.Ready[c] = m.readySample[c]
		info.IQFree[c] = m.iqs[c].Free()
	}
	return info
}

// --- Issue ---

//dca:hotpath
func (m *Machine) issue() {
	for c := 0; c < m.cfg.NumClusters(); c++ {
		if m.iqs[c].ReadyCount() == 0 {
			// Issuable only returns waiting-and-ready entries, so an empty
			// ready count means an empty scan.
			continue
		}
		budget := m.cfg.Clusters[c].IssueWidth
		m.issueBuf = m.issueBuf[:0]
		m.issueBuf = m.iqs[c].Issuable(m.issueBuf)
		for _, d := range m.issueBuf {
			if budget == 0 {
				break
			}
			if d.IsCopy {
				// A copy consumes an issue slot in its source cluster and
				// one bus toward its destination cluster.
				if m.busUsed[c] >= m.cfg.InterClusterBuses {
					continue
				}
				m.busUsed[c]++
				budget--
				m.iqs[c].Remove(d)
				d.state = stateIssued
				d.issuedAt = m.cycle
				d.completeAt = m.cycle + uint64(m.cfg.CopyLatencyBetween(int(d.SrcCluster), int(d.Cluster)))
				m.schedule(d)
				m.probeEvent(EvIssue, d)
				continue
			}
			lat, ok := m.fus[c].TryIssue(d.Inst.Op, m.cycle)
			if !ok {
				continue
			}
			budget--
			m.iqs[c].Remove(d)
			d.state = stateIssued
			d.issuedAt = m.cycle
			if d.isLoad || d.isStore {
				// The issued operation is the EA computation; the memory
				// access is handled by the LSQ afterwards.
				d.completeAt = m.cycle + uint64(m.cfg.Lat.SimpleInt)
			} else {
				d.completeAt = m.cycle + uint64(lat)
			}
			m.schedule(d)
			m.probeEvent(EvIssue, d)
		}
	}
}

// --- Completion ---

//dca:hotpath
func (m *Machine) complete() {
	slot := m.cycle & uint64(len(m.evtHead)-1)
	d := m.evtHead[slot]
	if d == nil {
		return
	}
	m.evtHead[slot], m.evtTail[slot] = nil, nil
	m.wakeBuf = m.wakeBuf[:0]
	for next := d; d != nil; d = next {
		next = d.nextEvt
		d.nextEvt = nil
		m.probeEvent(EvComplete, d)
		switch {
		case d.IsCopy:
			m.noteReady(d.Cluster, d.destPhys)
			d.state = stateDone
			m.noteCopyArrival(d)
		case d.isLoad && !d.eaDone:
			d.eaDone = true
			d.state = stateMemWait
			m.ldst.MarkAddrKnown(d)
		case d.isLoad: // data returned
			m.noteReady(d.Cluster, d.destPhys)
			d.state = stateDone
		case d.isStore:
			d.eaDone = true
			m.ldst.MarkAddrKnown(d)
			d.state = stateDone
		default:
			m.noteReady(d.Cluster, d.destPhys)
			d.state = stateDone
			if d.isBranch {
				m.resolveBranch(d)
			}
		}
	}
	// Wake the consumers only after the whole batch: srcReady flags must
	// stay pre-update while noteCopyArrival inspects them (the paper's
	// criticality test reads the state the waiting instructions were in
	// when the copy arrived).
	for _, wp := range m.wakeBuf {
		m.iqs[wp.c].wakeReg(wp.p)
	}
}

// wakePair records one register made ready by a completion, pending its
// waiter-list walk at the end of the batch.
type wakePair struct {
	c ClusterID
	p physReg
}

// noteReady marks the register ready in its file and queues the wakeup.
//
//dca:hotpath
func (m *Machine) noteReady(c ClusterID, p physReg) {
	if p == noPhys {
		return
	}
	m.files[c].SetReady(p)
	m.wakeBuf = append(m.wakeBuf, wakePair{c: c, p: p})
}

// noteCopyArrival implements the paper's criticality test: a communication
// is critical when an instruction in the destination cluster was already
// waiting for the value when it arrived. The scan's only output is the
// CriticalCopies stat, so warm-up cycles (measuring off) skip it.
//
//dca:hotpath
func (m *Machine) noteCopyArrival(cpy *DynInst) {
	if !m.measuring {
		return
	}
	for d := m.iqs[cpy.Cluster].qhead; d != nil; d = d.nextQ {
		if d.state != stateWaiting || d.readyCycle >= m.cycle {
			continue
		}
		for i := 0; i < d.numSrcs; i++ {
			if d.srcPhys[i] == cpy.destPhys && !d.srcReady[i] {
				othersReady := true
				for j := 0; j < d.numSrcs; j++ {
					if j != i && !d.srcReady[j] {
						othersReady = false
					}
				}
				if othersReady {
					cpy.waitingConsumer = true
					if m.measuring {
						m.run.CriticalCopies++
					}
					return
				}
			}
		}
	}
}

//dca:hotpath
func (m *Machine) resolveBranch(d *DynInst) {
	m.steerer.OnBranchResolved(d.PC, d.mispredicted)
	if d.mispredicted && m.waitingBranch && d.ProgSeq == m.waitBranchSeq {
		m.waitingBranch = false
		if m.fetchStallUntil < m.cycle+1 {
			m.fetchStallUntil = m.cycle + 1
		}
		m.lastRedirect = m.cycle
		m.probeEvent(EvRedirect, d)
	}
}

// --- Memory step ---

//dca:hotpath
func (m *Machine) memStep() {
	m.loadBuf = m.loadBuf[:0]
	m.loadBuf = m.ldst.ReadyLoads(m.loadBuf)
	hit := m.cfg.Mem.L1D.HitLatency
	for _, d := range m.loadBuf {
		switch m.ldst.classify(d, m.files) {
		case loadBlocked:
			continue
		case loadForward:
			d.lsqAccessed = true
			d.completeAt = m.cycle + uint64(hit)
			m.schedule(d)
			m.steerer.OnLoadResolved(d.PC, false)
		case loadAccess:
			if m.dcachePortsUsed >= m.cfg.DCachePorts {
				return // ports exhausted this cycle; retry next cycle
			}
			m.dcachePortsUsed++
			lat := m.hier.L1D.Access(d.memAddr, false)
			d.lsqAccessed = true
			d.completeAt = m.cycle + uint64(lat)
			m.schedule(d)
			m.steerer.OnLoadResolved(d.PC, lat > hit)
		}
	}
}

// --- Commit ---

// commit retires finished instructions in order and reports how many it
// retired this cycle (the probe's cycle sample attributes on it).
//
//dca:hotpath
func (m *Machine) commit() int {
	retired := 0
	for retired < m.cfg.RetireWidth && m.robLen > 0 {
		d := m.robFront()
		if d.state != stateDone {
			return retired
		}
		if d.isStore {
			// The store needs its data and a cache port to write.
			if d.numSrcs > 1 && !m.files[d.Cluster].Ready(d.srcPhys[1]) {
				return retired
			}
			if m.dcachePortsUsed >= m.cfg.DCachePorts {
				return retired
			}
			m.dcachePortsUsed++
			m.hier.L1D.Access(d.memAddr, true)
			m.ldst.Remove(d)
		}
		if d.isLoad {
			m.ldst.Remove(d)
		}
		for mask := d.prevMask; mask != 0; mask &= mask - 1 {
			c := bits.TrailingZeros8(mask)
			m.files[c].Release(d.prevMapping[c])
		}
		d.state = stateRetired
		m.robPop()
		m.lastCommitAt = m.cycle
		retired++
		m.probeEvent(EvCommit, d)
		if !d.IsCopy {
			m.progInFlight--
			m.committedProg++
			if m.measuring {
				m.run.Instructions++
			}
			if d.Inst.Op == isa.HALT {
				m.haltCommitted = true
				return retired
			}
		}
		m.freeDyn(d)
	}
	return retired
}

// --- Sampling ---

//dca:hotpath
func (m *Machine) sample() {
	for c := range m.readySample {
		m.readySample[c] = m.iqs[c].ReadyCount()
	}
	m.steerer.OnCycle(m.cycle, m.readySample)
	if m.measuring {
		m.run.Balance.Record(BalanceDiff(m.readySample))
		m.replicatedSum += uint64(m.rt.replicatedCount())
	}
}
