package core

import (
	"math/rand"
	"testing"

	"repro/internal/config"
	"repro/internal/prog"
)

func wheelMachine(t *testing.T) *Machine {
	t.Helper()
	b := prog.NewBuilder("wheel")
	b.Halt()
	m, err := New(config.Clustered(), b.MustBuild(), NaiveSteerer{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// completionOrder drains the wheel cycle by cycle and records the Seq of
// every EvComplete event in delivery order.
func completionOrder(m *Machine, through uint64) []uint64 {
	var got []uint64
	m.SetTracer(tracerFunc(func(cycle uint64, ev Event, d *DynInst) {
		if ev == EvComplete {
			got = append(got, d.Seq)
		}
	}))
	for m.cycle <= through {
		m.complete()
		m.cycle++
	}
	m.SetTracer(nil)
	return got
}

// TestTimingWheelGrowth schedules completions far past the initial wheel
// span, forcing growWheel, and checks that no event is lost, every event
// fires exactly at its completeAt, and same-cycle events keep schedule
// order across the re-slotting.
func TestTimingWheelGrowth(t *testing.T) {
	m := wheelMachine(t)
	if len(m.evtHead) != initialWheelSize {
		t.Fatalf("fresh wheel size %d, want %d", len(m.evtHead), initialWheelSize)
	}
	// Two events per target cycle so re-slotting must preserve intra-cycle
	// order; targets straddle the initial span and force two doublings.
	targets := []uint64{3, initialWheelSize - 1, initialWheelSize + 5, 2*initialWheelSize + 7, 3 * initialWheelSize}
	var want []uint64
	seq := uint64(0)
	for _, at := range targets {
		for k := 0; k < 2; k++ {
			d := &DynInst{Seq: seq, destPhys: noPhys, state: stateIssued, completeAt: at}
			m.schedule(d)
			seq++
		}
	}
	if len(m.evtHead) <= initialWheelSize {
		t.Fatalf("wheel did not grow: size %d", len(m.evtHead))
	}
	for i := uint64(0); i < seq; i++ {
		want = append(want, i)
	}
	got := completionOrder(m, 3*initialWheelSize+1)
	if len(got) != len(want) {
		t.Fatalf("delivered %d events, scheduled %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion order %v, want %v", got, want)
		}
	}
}

// TestTimingWheelGrowthMidFlight grows the wheel while events are already
// pending at nonzero cycles (head offsets), the re-slotting case growWheel
// actually faces in production.
func TestTimingWheelGrowthMidFlight(t *testing.T) {
	m := wheelMachine(t)
	m.cycle = 1000 // wheel indexing is absolute; start away from zero
	early := &DynInst{Seq: 1, destPhys: noPhys, state: stateIssued, completeAt: 1003}
	m.schedule(early)
	late := &DynInst{Seq: 2, destPhys: noPhys, state: stateIssued, completeAt: 1000 + 4*initialWheelSize}
	m.schedule(late)
	got := completionOrder(m, 1000+4*initialWheelSize)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("completion order %v, want [1 2]", got)
	}
	if early.state != stateDone || late.state != stateDone {
		t.Fatal("events not completed after drain")
	}
}

// checkWheelInvariant verifies the structural invariant fast-forward's
// wake scan (ffWake) and growWheel both rely on: no pending event is in
// the past, every chain links events of one completion cycle only, each
// chain hangs off the slot its cycle masks to, and evtTail points at the
// chain's last element.
func checkWheelInvariant(t *testing.T, m *Machine) {
	t.Helper()
	mask := uint64(len(m.evtHead) - 1)
	for slot := range m.evtHead {
		head := m.evtHead[slot]
		if head == nil {
			if m.evtTail[slot] != nil {
				t.Fatalf("cycle %d slot %d: tail set with nil head", m.cycle, slot)
			}
			continue
		}
		at := head.completeAt
		if at&mask != uint64(slot) {
			t.Fatalf("cycle %d: event for cycle %d hangs off slot %d (want %d)", m.cycle, at, slot, at&mask)
		}
		if at < m.cycle {
			t.Fatalf("cycle %d: pending event already due at %d", m.cycle, at)
		}
		last := head
		for d := head; d != nil; d = d.nextEvt {
			if d.completeAt != at {
				t.Fatalf("cycle %d slot %d: chain mixes completion cycles %d and %d", m.cycle, slot, at, d.completeAt)
			}
			last = d
		}
		if m.evtTail[slot] != last {
			t.Fatalf("cycle %d slot %d: tail does not point at last chain element", m.cycle, slot)
		}
	}
}

// TestTimingWheelAdversarialSchedules drives the wheel with randomized
// adversarial completion schedules — bursts clustered just ahead of the
// current cycle, exactly at the span boundary, and far enough out to force
// growth mid-stream — interleaved with partial drains, the pattern a
// fast-forwarding run produces when it jumps between sparse events. After
// every burst the structural invariant must hold, ffWake must report the
// earliest pending event, and the final drain must deliver every event at
// exactly its completion cycle in schedule order (growth must never
// reorder a chain).
func TestTimingWheelAdversarialSchedules(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	m := wheelMachine(t)
	m.cycle = 500 // absolute indexing: start away from zero

	scheduled := map[uint64][]uint64{} // completion cycle -> Seqs in schedule order
	delivered := map[uint64][]uint64{}
	m.SetTracer(tracerFunc(func(cycle uint64, ev Event, d *DynInst) {
		if ev == EvComplete {
			if cycle != d.completeAt {
				t.Fatalf("event %d delivered at cycle %d, scheduled for %d", d.Seq, cycle, d.completeAt)
			}
			delivered[cycle] = append(delivered[cycle], d.Seq)
		}
	}))

	pending := 0
	seq := uint64(0)
	for round := 0; round < 60; round++ {
		burst := 1 + r.Intn(8)
		for i := 0; i < burst; i++ {
			var off uint64
			switch r.Intn(4) {
			case 0: // just ahead: dense same-cycle chains
				off = 1 + uint64(r.Intn(3))
			case 1: // at the current span boundary
				off = uint64(len(m.evtHead) - 1)
			case 2: // past the span: forces growWheel with live chains
				// (bounded — every unbounded hit would double the wheel)
				if len(m.evtHead) < 8192 {
					off = uint64(len(m.evtHead)) + uint64(r.Intn(64))
				} else {
					off = 1 + uint64(r.Intn(1000))
				}
			default:
				off = 1 + uint64(r.Intn(1000))
			}
			at := m.cycle + off
			d := &DynInst{Seq: seq, destPhys: noPhys, state: stateIssued, completeAt: at}
			m.schedule(d)
			scheduled[at] = append(scheduled[at], seq)
			seq++
			pending++
		}
		checkWheelInvariant(t, m)

		// ffWake must find the earliest pending event (nothing else is
		// pending on this machine, and the watchdog clamp is far away).
		earliest := uint64(0)
		for at := uint64(m.cycle) + 1; earliest == 0 && at <= m.cycle+uint64(len(m.evtHead)); at++ {
			if len(scheduled[at]) > len(delivered[at]) {
				earliest = at
			}
		}
		if earliest != 0 {
			if wake := m.ffWake(); wake != earliest {
				t.Fatalf("cycle %d: ffWake = %d, earliest pending event at %d", m.cycle, wake, earliest)
			}
		}

		// Partial drain: complete a random number of cycles.
		for i, n := 0, r.Intn(12); i < n; i++ {
			before := len(delivered[m.cycle])
			m.complete()
			pending -= len(delivered[m.cycle]) - before
			m.cycle++
		}
		checkWheelInvariant(t, m)
	}
	// Final drain.
	for guard := 0; pending > 0; guard++ {
		if guard > 1<<20 {
			t.Fatalf("wheel never drained: %d events pending", pending)
		}
		before := len(delivered[m.cycle])
		m.complete()
		pending -= len(delivered[m.cycle]) - before
		m.cycle++
	}
	m.SetTracer(nil)

	for at, want := range scheduled {
		got := delivered[at]
		if len(got) != len(want) {
			t.Fatalf("cycle %d: delivered %d events, scheduled %d", at, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cycle %d: delivery order %v, want %v (growth reordered a chain?)", at, got, want)
			}
		}
	}
}

// TestROBRingGrowth pushes past the preallocated ROB capacity and checks
// robGrow preserves age order through the head reset.
func TestROBRingGrowth(t *testing.T) {
	m := wheelMachine(t)
	capBefore := len(m.rob)
	// Stagger the head so growth must unwrap a wrapped ring.
	for i := 0; i < 10; i++ {
		m.robPush(&DynInst{Seq: uint64(1000 + i)})
	}
	for i := 0; i < 5; i++ {
		m.robPop()
	}
	n := capBefore + 20
	for i := 0; i < n; i++ {
		m.robPush(&DynInst{Seq: uint64(i)})
	}
	if len(m.rob) <= capBefore {
		t.Fatalf("ROB ring did not grow: cap %d", len(m.rob))
	}
	if m.robLen != 5+n {
		t.Fatalf("robLen %d, want %d", m.robLen, 5+n)
	}
	for i := 0; i < 5; i++ {
		if m.robAt(i).Seq != uint64(1005+i) {
			t.Fatalf("pre-growth survivor %d has Seq %d", i, m.robAt(i).Seq)
		}
	}
	for i := 0; i < n; i++ {
		if m.robAt(5+i).Seq != uint64(i) {
			t.Fatalf("entry %d has Seq %d, want %d", 5+i, m.robAt(5+i).Seq, i)
		}
	}
}

// TestDecodeRingGrowth exercises dqPush's doubling path the same way.
func TestDecodeRingGrowth(t *testing.T) {
	m := wheelMachine(t)
	capBefore := len(m.decodeQ)
	for i := 0; i < 3; i++ {
		fi := m.dqPush()
		fi.seq = uint64(100 + i)
	}
	m.dqPop() // offset the head
	n := capBefore + 10
	for i := 0; i < n; i++ {
		fi := m.dqPush()
		fi.seq = uint64(i)
	}
	if len(m.decodeQ) <= capBefore {
		t.Fatalf("decode ring did not grow: cap %d", len(m.decodeQ))
	}
	if m.dqLen != 2+n {
		t.Fatalf("dqLen %d, want %d", m.dqLen, 2+n)
	}
	if m.dqFront().seq != 101 {
		t.Fatalf("front Seq %d, want 101", m.dqFront().seq)
	}
	m.dqPop()
	m.dqPop()
	for i := 0; i < n; i++ {
		if m.dqFront().seq != uint64(i) {
			t.Fatalf("entry %d has Seq %d", i, m.dqFront().seq)
		}
		m.dqPop()
	}
}
