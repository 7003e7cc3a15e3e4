package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one grid cell (or
// one fleet grid) share Unit; Parent is the ID of the span that made the
// call, 0 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Unit   string        `json:"unit"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so timed code needs no branches.
// start/end may be called from several goroutines; push/pop keep an
// implicit current span and are for single-goroutine callers (the grid
// workloads run one cell at a time).
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	cur   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent and returns its ID.
func (t *tracer) start(name string, parent int, unit string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Unit: unit, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// push opens a span under the current one and makes it current. An empty
// unit inherits the current span's, so a nested wrapper need not know
// which cell it serves.
func (t *tracer) push(name, unit string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if unit == "" && t.cur != 0 {
		unit = t.spans[t.cur-1].Unit
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.cur, Name: name, Unit: unit, Start: now})
	t.cur = len(t.spans)
	return t.cur
}

// pop closes span id and makes its parent current again.
func (t *tracer) pop(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.cur = t.spans[id-1].Parent
}

// mark returns the number of spans recorded so far; since(mark) returns
// the spans recorded after it, so a phase can be summarised on its own.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since returns a copy of the spans recorded after mark.
func (t *tracer) since(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// layerTime is one row of the self-time summary.
type layerTime struct {
	Name  string
	Count int
	Self  time.Duration
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part of its interval that its children cover. Children may overlap
// one another (concurrent calls under one parent); the covered part is the
// union of their intervals clipped to the parent, so no time is subtracted
// twice. Rows are sorted by descending self time.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerTime)
	for _, s := range spans {
		self := (s.End - s.Start) - covered(s, children[s.ID])
		r, ok := rows[s.Name]
		if !ok {
			r = &layerTime{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Self += self
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns the length of the union of kids' intervals within p.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// selfOf returns the summed self time of the rows named name.
func selfOf(rows []layerTime, name string) time.Duration {
	for _, r := range rows {
		if r.Name == name {
			return r.Self
		}
	}
	return 0
}

// extent returns the time from the first span's start to the last one's
// end.
func extent(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	lo, hi := spans[0].Start, spans[0].End
	for _, s := range spans[1:] {
		lo, hi = min(lo, s.Start), max(hi, s.End)
	}
	return hi - lo
}

// printSelfTimes writes the per-layer self-time table, with each row's
// share of wall (the traced phase's wall time).
func printSelfTimes(w io.Writer, title string, rows []layerTime, wall time.Duration) {
	fmt.Fprintf(w, "== %s: self time by layer (wall %.1f ms)\n", title, ms(wall))
	fmt.Fprintf(w, "%-28s %8s %12s %7s\n", "span", "calls", "self_ms", "share")
	var sum time.Duration
	for _, r := range rows {
		sum += r.Self
		share := 0.0
		if wall > 0 {
			share = 100 * float64(r.Self) / float64(wall)
		}
		fmt.Fprintf(w, "%-28s %8d %12.2f %6.2f%%\n", r.Name, r.Count, ms(r.Self), share)
	}
	fmt.Fprintf(w, "%-28s %8s %12.2f\n", "(sum)", "", ms(sum))
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
