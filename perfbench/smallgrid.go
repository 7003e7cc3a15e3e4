package main

import (
	"math/rand/v2"
	"slices"

	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/workload"
)

// Small grids are the unit of grid_ms: 2 schemes x 2 benchmarks at a tiny
// window, the shape of a quick interactive submission. fleet-drain queues
// them on dcaserve; the grid workloads run the same specs in-process
// through their own runner stack, so the two grid_ms figures differ by the
// service path alone.
//
// Windows are drawn without replacement from a 100 x 100 grid of
// (warm-up, measure) pairs, so no two grids share a job key and the work
// per grid varies by a few percent, evenly over the run rather than
// growing with it.
const (
	smallSchemes = 2
	smallBenches = 2
	smallWarmup  = 200  // warm-up is smallWarmup + 0..99
	smallMeasure = 1000 // measure is smallMeasure + 0..99
	smallWindows = 100 * 100
)

// smallGrids draws n <= smallWindows small grid specs from rng. Schemes
// and benchmarks are dealt from shuffled decks rather than drawn
// independently, so every stretch of grids holds each one about equally
// often: the mix, and with it the grid_ms distribution, is the same from
// seed to seed.
func smallGrids(rng *rand.Rand, n int) []job.GridSpec {
	schemes := &deck{rng: rng, xs: append([]string{job.BaseScheme}, experiments.AllSchemes()...)}
	benches := &deck{rng: rng, xs: workload.Names()}
	windows := rng.Perm(smallWindows)
	out := make([]job.GridSpec, min(n, smallWindows))
	for i := range out {
		out[i] = job.GridSpec{
			Schemes:    schemes.deal(smallSchemes),
			Benchmarks: benches.deal(smallBenches),
			Warmup:     uint64(smallWarmup + windows[i]/100),
			Measure:    uint64(smallMeasure + windows[i]%100),
		}
	}
	return out
}

// deck deals entries of xs in seeded shuffles, reshuffling when it runs
// out.
type deck struct {
	rng   *rand.Rand
	xs    []string
	cards []string
}

// deal returns k distinct entries. A card that would repeat one already
// dealt in this hand (possible across a reshuffle) is discarded.
func (d *deck) deal(k int) []string {
	out := make([]string, 0, k)
	for len(out) < k {
		if len(d.cards) == 0 {
			d.cards = shuffled(d.rng, d.xs)
		}
		c := d.cards[0]
		d.cards = d.cards[1:]
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// shuffled returns a seeded permutation of xs.
func shuffled(rng *rand.Rand, xs []string) []string {
	out := append([]string(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
