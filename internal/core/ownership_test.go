package core

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/config"
	"repro/internal/stats"
)

// trackedSteerer is a cloneable modulo policy that records a weak pointer
// to every clone, so a test can tell whether the machine holding a clone
// is still reachable.
type trackedSteerer struct {
	moduloSteerer
	clones *[]weak.Pointer[trackedSteerer]
}

func (s *trackedSteerer) CloneSteerer() Steerer {
	c := &trackedSteerer{moduloSteerer: s.moduloSteerer, clones: s.clones}
	*s.clones = append(*s.clones, weak.Make(c))
	return c
}

func runBytes(t *testing.T, r *stats.Run) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMeasureResultOwnedByCaller locks the result-ownership contract: the
// record Measure, RunWithWarmup and Checkpoint.Measure return is a copy
// the caller owns. Holding it must not keep the machine reachable — a grid
// that keeps every cell's record would otherwise keep every machine, decode
// ring included — and running the machine on must not rewrite it.
func TestMeasureResultOwnedByCaller(t *testing.T) {
	p := wideLoop()
	cfg := config.Clustered()

	t.Run("machine unreachable", func(t *testing.T) {
		m, err := New(cfg, p, &moduloSteerer{})
		if err != nil {
			t.Fatal(err)
		}
		w := weak.Make(m)
		r, err := m.RunWithWarmup(2000, 4000)
		if err != nil {
			t.Fatal(err)
		}
		m = nil
		runtime.GC()
		if w.Value() != nil {
			t.Fatal("the returned run keeps its machine reachable")
		}
		if r.Instructions < 4000 || len(r.Steered) != cfg.NumClusters() {
			t.Fatalf("run lost its contents: %d instructions, %d clusters", r.Instructions, len(r.Steered))
		}
	})

	t.Run("later runs leave it unchanged", func(t *testing.T) {
		m, err := New(cfg, p, &moduloSteerer{})
		if err != nil {
			t.Fatal(err)
		}
		first, err := m.RunWithWarmup(2000, 3000)
		if err != nil {
			t.Fatal(err)
		}
		want := runBytes(t, first)
		second, err := m.Measure(5000)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Warm(20000); err != nil {
			t.Fatal(err)
		}
		third, err := m.Measure(1000)
		if err != nil {
			t.Fatal(err)
		}
		if got := runBytes(t, first); got != want {
			t.Fatalf("a later Warm/Measure rewrote an earlier result\n got: %s\nwant: %s", got, want)
		}
		if second == third || &second.Steered[0] == &third.Steered[0] {
			t.Fatal("two measurements share a record")
		}
	})

	t.Run("checkpoint", func(t *testing.T) {
		var clones []weak.Pointer[trackedSteerer]
		m, err := New(cfg, p, &trackedSteerer{clones: &clones})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Warm(2000); err != nil {
			t.Fatal(err)
		}
		cp, ok := m.Checkpoint()
		if !ok {
			t.Fatal("machine not checkpointable")
		}
		m = nil
		first, err := cp.Measure(3000)
		if err != nil {
			t.Fatal(err)
		}
		want := runBytes(t, first)
		// clones[0] belongs to the frozen snapshot, clones[1] to the
		// machine the first Measure restored.
		if len(clones) != 2 {
			t.Fatalf("%d steerer clones, want 2", len(clones))
		}
		if _, err := cp.Measure(6000); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		if clones[1].Value() != nil {
			t.Fatal("the run Checkpoint.Measure returned keeps the restored machine reachable")
		}
		if got := runBytes(t, first); got != want {
			t.Fatalf("a later Checkpoint.Measure rewrote an earlier result\n got: %s\nwant: %s", got, want)
		}
		runtime.KeepAlive(cp)
	})
}

// TestDecodeEntrySize guards the decode-ring entry size. The ring is the
// one core structure whose entry count is unbounded: fetch runs ahead of a
// stalled dispatcher with no back-pressure, and on vortex the ring reaches
// 2^20–2^21 entries at the default 100k+1M window, so every byte of an
// entry costs one to two megabytes of a machine's footprint there.
func TestDecodeEntrySize(t *testing.T) {
	const maxBytes = 40 // four 64-bit words plus pc, flags and target
	if got := unsafe.Sizeof(fetched{}); got > maxBytes {
		t.Fatalf("decode-ring entry is %d bytes, want <= %d", got, maxBytes)
	}
}

// TestCheckTextFits pins the program-length bound that makes the ring's
// 32-bit PCs lossless.
func TestCheckTextFits(t *testing.T) {
	if err := checkTextFits(math.MaxInt32); err != nil {
		t.Fatalf("MaxInt32 instructions rejected: %v", err)
	}
	if err := checkTextFits(math.MaxInt32 + 1); err == nil {
		t.Fatal("MaxInt32+1 instructions accepted")
	}
}
