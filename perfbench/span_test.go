package main

import (
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

// TestSelfTimeSubtractsChildren checks that a span's self time is its
// duration minus its children's, per name, and that the self times of a
// tree sum to its root's duration.
func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, "cell", 0, 100),
		sp(2, 1, "load", 0, 10),
		sp(3, 1, "warm", 10, 40),
		sp(4, 1, "measure", 40, 95),
		sp(5, 0, "cell", 100, 150),
		sp(6, 5, "load", 100, 105),
		sp(7, 5, "measure", 110, 150),
	}
	rows := selfTimes(spans)
	want := map[string]time.Duration{"cell": 5 + 5, "load": 15, "warm": 30, "measure": 95}
	var sum time.Duration
	for _, r := range rows {
		sum += r.Self
		if r.Self != want[r.Name] {
			t.Errorf("%s self = %v, want %v", r.Name, r.Self, want[r.Name])
		}
	}
	if sum != 150 {
		t.Errorf("self times sum to %v, want the roots' 150", sum)
	}
	if rows[0].Name != "measure" {
		t.Errorf("rows not sorted by self time: first is %s", rows[0].Name)
	}
}

// TestSelfTimeOverlappingChildren checks that concurrent children covering
// the same interval are subtracted once, and that a child running past its
// parent is clipped to it.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, "grid", 0, 100),
		sp(2, 1, "a", 10, 50),
		sp(3, 1, "b", 30, 60),  // overlaps a: union 10..60
		sp(4, 1, "c", 80, 120), // runs past the parent: counts 80..100
		sp(5, 4, "c.child", 80, 90),
	}
	rows := selfTimes(spans)
	if got := selfOf(rows, "grid"); got != 100-50-20 {
		t.Errorf("grid self = %v, want 30", got)
	}
	if got := selfOf(rows, "c"); got != 40-10 {
		t.Errorf("c self = %v, want 30", got)
	}
}

// TestTracerPushPop checks the implicit-parent API: nested pushes form a
// tree, an empty unit inherits the parent's, and a nil tracer is inert.
func TestTracerPushPop(t *testing.T) {
	tr := newTracer()
	root := tr.push("cell", "go/base")
	child := tr.push("load", "")
	tr.pop(child)
	sib := tr.push("warm", "")
	tr.pop(sib)
	tr.pop(root)
	spans := tr.since(0)
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	for _, s := range spans[1:] {
		if s.Parent != root || s.Unit != "go/base" {
			t.Errorf("span %s: parent %d unit %q, want %d and go/base", s.Name, s.Parent, s.Unit, root)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	next := tr.push("cell", "gcc/base")
	if spans := tr.since(3); len(spans) != 1 || spans[0].Parent != 0 || next != 4 {
		t.Errorf("after popping the root, a push must open a new root: %+v", spans)
	}

	var off *tracer
	off.pop(off.push("cell", "x"))
	off.end(off.start("cell", 0, "x"))
	if off.mark() != 0 || off.since(0) != nil {
		t.Error("nil tracer recorded spans")
	}
}
