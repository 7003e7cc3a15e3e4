package core

// Event-driven fast-forward: when the cycle about to be simulated is
// provably a no-op for every pipeline stage, the machine advances directly
// to the next cycle at which any stage can act — the earliest pending
// completion event in the timing wheel, a fetch-stall expiry, or the
// decode-queue front's arrival from the front-end pipeline — instead of
// stepping cycle-by-cycle.
//
// The no-op predicate (ffIdle) is deliberately conservative: each per-unit
// check must hold not only for the current cycle but for every cycle of the
// skipped window, which follows from the checks only depending on state
// that changes through completion events, commits, issues or dispatches —
// none of which the window contains. The only per-cycle work an idle cycle
// performs is the workload-balance sample and the steering policy's OnCycle
// hook; the sample is batched (the ready counts cannot change across the
// window) and OnCycle is replayed per cycle because the balance-metric
// windows and the priority scheme's epochs are cycle-stateful. The mode is
// therefore bit-identity-preserving: the differential harness's 153 golden
// digests, the 19-scheme experiments grid and the FuzzFastForward lock-step
// fuzz target all run with it enabled. DESIGN.md ("Fast-forward invariant")
// states the exact predicate.

// SetFastForward toggles event-driven fast-forward. It is on by default
// and preserves results bit-for-bit; the knob exists for the differential
// fast-forward test suite (which locks a skipping machine against a
// tick-every-cycle one) and for debugging, not for correctness.
func (m *Machine) SetFastForward(on bool) { m.fastForward = on }

// FastForward reports whether event-driven fast-forward is enabled.
func (m *Machine) FastForward() bool { return m.fastForward }

// ffIdle reports whether the cycle about to be simulated is provably a
// no-op for every stage. Each clause must be stable across the whole
// skipped window, not just the current cycle; see the file comment.
//
//dca:hotpath
func (m *Machine) ffIdle() bool {
	// Fetch: finished, stalled on an unresolved branch, or stalled until a
	// future cycle (ffWake clamps the jump to the stall expiry).
	if !m.fetchDone && !m.waitingBranch && m.cycle >= m.fetchStallUntil {
		return false
	}
	// Completion: no wheel event due this cycle.
	if m.evtHead[m.cycle&uint64(len(m.evtHead)-1)] != nil {
		return false
	}
	// Commit: the ROB is empty, its head is still executing, or its head
	// is a store blocked on its data operand. Register readiness only
	// changes through wheel events, so the block is stable.
	if m.robLen > 0 {
		d := m.robFront()
		if d.state == stateDone &&
			!(d.isStore && d.numSrcs > 1 && !m.files[d.Cluster].Ready(d.srcPhys[1])) {
			return false
		}
	}
	// Issue: no cluster holds a ready waiting instruction. This is
	// stricter than "nothing can issue": a ready instruction blocked on an
	// occupied divide unit would become issuable mid-window purely by time
	// advancing, so any ready instruction forfeits the skip.
	for c := range m.iqs {
		if m.iqs[c].ReadyCount() > 0 {
			return false
		}
	}
	// Dispatch, cheap half: the decode queue is empty, its front is still
	// in the front-end pipeline (ffWake clamps to availableAt), or the
	// front is steered. An unsteered front must step normally — the first
	// dispatch attempt consults the policy and updates its tables. Checked
	// before the two expensive clauses below because an available unsteered
	// front is the most common reason dense code can't skip.
	dispatchable := false
	if m.dqLen > 0 {
		fi := m.dqFront()
		if fi.availableAt <= m.cycle {
			if !fi.steered {
				return false
			}
			dispatchable = true
		}
	}
	// Memory: every load eligible for an access is blocked behind an
	// earlier store whose address or data is pending — both only change
	// through wheel events.
	if !m.ldst.allBlocked(m.files) {
		return false
	}
	// Dispatch, structural half: an already-steered available front must
	// fail a structural resource check; a front that passes every pure
	// check would dispatch (or consume a sequence number on a FIFO-slot
	// stall after it), so it forfeits the skip.
	if dispatchable {
		fi := m.dqFront()
		in := m.inst(fi)
		target := m.resolveTarget(fi, in)
		plans, nPlans, err := m.planCopies(fi, in, target)
		if err != nil || (nPlans > 0 && m.cfg.InterClusterBuses == 0) {
			return false // step normally and let dispatch surface the error
		}
		if !m.dispatchBlocked(in, target, &plans, nPlans) {
			return false
		}
	}
	return true
}

// ffWake returns the next cycle at which a stage can act again: the
// earliest pending wheel event (the wheel invariant — one distinct
// completion cycle per slot, always strictly future — makes the slot scan
// find it in order), the fetch-stall expiry, or the decode-queue front's
// pipeline arrival. The jump is clamped so that a window with no pending
// wake-up at all still trips the no-commit watchdog on exactly the cycle
// cycle-by-cycle stepping would report.
//
//dca:hotpath
func (m *Machine) ffWake() uint64 {
	wake := m.lastCommitAt + watchdogCycles
	mask := uint64(len(m.evtHead) - 1)
	for i := uint64(1); i < uint64(len(m.evtHead)); i++ {
		if d := m.evtHead[(m.cycle+i)&mask]; d != nil {
			if d.completeAt < wake {
				wake = d.completeAt
			}
			break
		}
	}
	if !m.fetchDone && !m.waitingBranch && m.fetchStallUntil > m.cycle && m.fetchStallUntil < wake {
		wake = m.fetchStallUntil
	}
	if m.dqLen > 0 {
		if a := m.dqFront().availableAt; a > m.cycle && a < wake {
			wake = a
		}
	}
	return wake
}

// tryFastForward advances the machine across a provably idle stretch in one
// jump. Per skipped cycle only the steering policy's OnCycle hook runs (the
// balance-metric windows and the priority scheme's epochs are
// cycle-stateful, so the replay is required for bit-identity); the
// workload-balance sample is batched through stats.BalanceHist.RecordN
// because the per-cluster ready counts and the replicated-register count
// cannot change while every queue is quiescent.
//
//dca:hotpath
func (m *Machine) tryFastForward() {
	if !m.ffIdle() {
		return
	}
	wake := m.ffWake()
	if wake <= m.cycle {
		return
	}
	n := wake - m.cycle
	for c := range m.readySample {
		m.readySample[c] = m.iqs[c].ReadyCount()
	}
	for cyc := m.cycle; cyc < wake; cyc++ {
		m.steerer.OnCycle(cyc, m.readySample)
	}
	if m.measuring {
		m.run.Balance.RecordN(BalanceDiff(m.readySample), n)
		m.replicatedSum += n * uint64(m.rt.replicatedCount())
		m.cyclesMeasured += n
	}
	// One batched introspection sample stands for the whole window: the
	// classification and every sampled quantity are constant across it
	// (the same argument that lets the balance sample batch), so a probed
	// skipping run attributes exactly like a probed tick-every-cycle run.
	m.probeCycle(n, 0)
	m.cycle = wake
}
