package core

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/stats"
)

// Warm-state checkpointing: a Checkpoint freezes a machine after its warm
// phase — architectural state (the emulator oracle), caches, predictors,
// steering tables, and every in-flight micro-architectural structure — so
// a grid can pay for the shared warm-up once and replay measurement runs
// from the snapshot. Restore produces a machine bit-identical to the one
// the snapshot was taken from: measuring a restored machine yields exactly
// the stats.Run an unbroken RunWithWarmup would have produced (the
// checkpoint round-trip test locks this). DESIGN.md ("Fast-forward
// invariant") documents the reuse key: warm state depends on everything in
// a job except the measurement budget, including the steering scheme —
// policies train their tables during warm-up — so snapshots are shareable
// only between runs that differ in Measure alone.

// Checkpoint is a frozen warm-state snapshot. It is immutable: Restore
// and Measure clone the frozen machine again, so one checkpoint serves any
// number of measurement runs.
type Checkpoint struct {
	m *Machine
}

// Checkpoint snapshots the machine's complete state, typically right after
// Warm. ok is false when a component cannot be snapshotted: the steering
// policy does not implement CloneableSteerer, the direction predictor is
// not a bpred.ClonableDir, or a live in-flight instruction was found
// chained outside the reorder buffer (an invariant violation). The machine
// itself is untouched either way and may keep running.
func (m *Machine) Checkpoint() (*Checkpoint, bool) {
	c, ok := m.clone()
	if !ok {
		return nil, false
	}
	return &Checkpoint{m: c}, true
}

// Restore returns a fresh machine continuing from the snapshot, leaving
// the checkpoint reusable. It returns nil only if the frozen machine has
// stopped being clonable, which cannot happen for snapshots built by
// Checkpoint (cloning is closed: every component clones to its own type).
func (c *Checkpoint) Restore() *Machine {
	m, ok := c.m.clone()
	if !ok {
		return nil
	}
	return m
}

// Measure restores the snapshot and measures the next measure instructions
// (0 = until HALT), exactly as Measure on the warmed machine would have.
// The restored machine is dropped on return; the record is the caller's.
func (c *Checkpoint) Measure(measure uint64) (*stats.Run, error) {
	m := c.Restore()
	if m == nil {
		return nil, fmt.Errorf("core: checkpoint no longer restorable")
	}
	return m.Measure(measure)
}

// clone deep-copies the machine. The configuration, program and the
// derived forcedByPC table are shared (immutable after construction); the
// probe is carried as-is (a probe observing both machines is the
// caller's choice). Everything else — including every live DynInst and the
// intrusive pointers between them — is duplicated so the two machines
// share no mutable state.
//
// The reorder buffer is the universe of live DynInsts: every instruction
// in the timing wheel, the issue queues, the waiter lists and the LSQ is
// in flight and therefore in the ROB (commit, which removes it, also
// removes it from the LSQ, and its waiter chains were cleared by the
// wakeReg walk of the completion that made it committable — wakeReg runs
// the cycle the register turns ready, and commit orders after complete
// within a cycle). The remap table is built from the ROB ring and every
// chained pointer is translated through it; finding a live pointer the
// table does not know falsifies that invariant and fails the clone.
func (m *Machine) clone() (*Machine, bool) {
	dir, okDir := m.bp.(bpred.ClonableDir)
	if !okDir {
		return nil, false
	}
	nbp := dir.CloneDir()
	if nbp == nil {
		return nil, false
	}
	cs, okSteer := m.steerer.(CloneableSteerer)
	if !okSteer {
		return nil, false
	}
	co, okOracle := m.oracle.(CloneableOracle)
	if !okOracle {
		// A recording oracle (internal/trace.Recorder) is deliberately not
		// cloneable: two machines appending to one trace buffer would
		// interleave. The caller falls back to an unsnapshotted run.
		return nil, false
	}

	c := new(Machine)
	*c = *m
	c.oracle = co.CloneOracle()
	c.steerer = cs.CloneSteerer()
	c.hier = m.hier.Clone()
	c.bp = nbp
	c.btb = m.btb.Clone()
	c.ras = m.ras.Clone()

	// Pass 1: duplicate every live DynInst, recording the translation.
	remap := make(map[*DynInst]*DynInst, m.robLen)
	for i := 0; i < m.robLen; i++ {
		old := m.robAt(i)
		nd := new(DynInst)
		*nd = *old
		remap[old] = nd
	}
	okAll := true
	look := func(d *DynInst) *DynInst {
		if d == nil {
			return nil
		}
		nd, known := remap[d]
		if !known {
			okAll = false
		}
		return nd
	}
	// Pass 2: translate the intrusive links (wheel chains, waiter chains).
	for i := 0; i < m.robLen; i++ {
		nd := remap[m.robAt(i)]
		nd.nextEvt = look(nd.nextEvt)
		nd.nextWaiter[0] = look(nd.nextWaiter[0])
		nd.nextWaiter[1] = look(nd.nextWaiter[1])
	}

	// Per-cluster structures. Capacities are preserved exactly so the
	// restored machine keeps the allocation-free steady state (the scratch
	// and pool sizing TestSteadyStateCycleAllocs depends on).
	c.files = make([]regFile, 0, cap(m.files))
	for i := range m.files {
		c.files = append(c.files, m.files[i].clone())
	}
	c.iqs = make([]issueQueue, len(m.iqs))
	for i := range m.iqs {
		m.iqs[i].cloneInto(&c.iqs[i], look)
	}
	c.fus = make([]fuPool, 0, cap(m.fus))
	for i := range m.fus {
		c.fus = append(c.fus, m.fus[i].clone())
	}
	nrt := *m.rt
	c.rt = &nrt
	nl := *m.ldst
	nl.ring = make([]*DynInst, len(m.ldst.ring))
	for i, d := range m.ldst.ring {
		nl.ring[i] = look(d)
	}
	c.ldst = &nl

	// Rings and the timing wheel (robPop nils vacated slots, so every
	// non-nil entry is live and in the remap table).
	c.rob = make([]*DynInst, len(m.rob))
	for i, d := range m.rob {
		c.rob[i] = look(d)
	}
	c.decodeQ = make([]fetched, len(m.decodeQ))
	copy(c.decodeQ, m.decodeQ)
	c.evtHead = make([]*DynInst, len(m.evtHead))
	c.evtTail = make([]*DynInst, len(m.evtTail))
	for i := range m.evtHead {
		c.evtHead[i] = look(m.evtHead[i])
		c.evtTail[i] = look(m.evtTail[i])
	}

	// The recycle pool's entries carry no live state (allocDyn overwrites
	// wholesale); refill with fresh ones to keep the pool size, which is
	// what makes the steady state allocation-free.
	c.dynPool = make([]*DynInst, len(m.dynPool), cap(m.dynPool))
	for i := range c.dynPool {
		c.dynPool[i] = new(DynInst)
	}

	// Per-cycle scratch (empty between cycles; keep the grown capacities).
	c.wakeBuf = make([]wakePair, 0, cap(m.wakeBuf))
	c.issueBuf = make([]*DynInst, 0, cap(m.issueBuf))
	c.loadBuf = make([]*DynInst, 0, cap(m.loadBuf))
	c.busUsed = make([]int, len(m.busUsed))
	copy(c.busUsed, m.busUsed)
	c.readySample = make([]int, len(m.readySample))
	copy(c.readySample, m.readySample)

	c.run.Steered = make([]uint64, len(m.run.Steered))
	copy(c.run.Steered, m.run.Steered)

	if !okAll {
		return nil, false
	}
	return c, true
}

// clone deep-copies a register file, preserving the free list's capacity.
func (rf *regFile) clone() regFile {
	nf := *rf
	nf.ready = make([]uint64, len(rf.ready))
	copy(nf.ready, rf.ready)
	nf.free = make([]physReg, len(rf.free), cap(rf.free))
	copy(nf.free, rf.free)
	return nf
}

// cloneInto deep-copies the issue queue into nq, translating every held
// DynInst pointer through look and preserving slice capacities.
func (q *issueQueue) cloneInto(nq *issueQueue, look func(*DynInst) *DynInst) {
	*nq = *q
	// Rebuild the age-ordered window list from translated nodes. The
	// copied DynInsts' own prevQ/nextQ still point into the source
	// machine's list; relinking every member here overwrites all of them
	// (non-members carry nil links — Remove clears them).
	nq.qhead, nq.qtail = nil, nil
	for d := q.qhead; d != nil; d = d.nextQ {
		nd := look(d)
		nd.prevQ, nd.nextQ = nq.qtail, nil
		if nq.qtail != nil {
			nq.qtail.nextQ = nd
		} else {
			nq.qhead = nd
		}
		nq.qtail = nd
	}
	nq.copies = make([]*DynInst, 0, cap(q.copies))
	for _, d := range q.copies {
		nq.copies = append(nq.copies, look(d))
	}
	nq.waiters = make([]*DynInst, len(q.waiters))
	for i, d := range q.waiters {
		nq.waiters[i] = look(d)
	}
	nq.fifos = make([][]*DynInst, len(q.fifos))
	for f := range q.fifos {
		nq.fifos[f] = make([]*DynInst, 0, cap(q.fifos[f]))
		for _, d := range q.fifos[f] {
			nq.fifos[f] = append(nq.fifos[f], look(d))
		}
	}
}

// clone deep-copies a functional-unit pool. Nil-ness of the per-kind
// busyUntil slices is preserved — TryIssue branches on it to pick the
// fully-pipelined path.
func (p *fuPool) clone() fuPool {
	np := *p
	for k := range np.busyUntil {
		if p.busyUntil[k] == nil {
			continue
		}
		nb := make([]uint64, len(p.busyUntil[k]))
		copy(nb, p.busyUntil[k])
		np.busyUntil[k] = nb
	}
	return np
}
