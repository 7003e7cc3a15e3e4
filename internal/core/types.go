// Package core implements the cycle-level timing simulator of the clustered
// dynamically-scheduled processor studied in "Dynamic Cluster Assignment
// Mechanisms" (Canal, Parcerisa, González — HPCA 2000), generalized from
// the paper's two clusters to an arbitrary cluster count (see
// ARCHITECTURE.md).
//
// The microarchitecture follows Section 2 of the paper: centralized fetch,
// decode and rename; a steering stage that assigns each instruction to one
// of N clusters; per-cluster issue queues, issue logic, physical register
// files and functional units; inter-cluster communication through explicit
// copy instructions that compete for issue slots and traverse a limited
// number of buses along a configurable topology (config.CopyDist); a
// centralized load/store disambiguation unit; and in-order commit from a
// shared reorder buffer.
//
// Execution is oracle-driven: the functional emulator (package emu)
// produces the committed-path instruction stream; the timing model imposes
// structural and data hazards on it. Branch mispredictions stall fetch
// until the branch resolves (wrong-path instructions are not simulated);
// see DESIGN.md for the fidelity argument.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/config"
	"repro/internal/isa"
)

// ClusterID names a cluster. On the paper's two-cluster machine, cluster 0
// is the integer cluster (C1 in the paper's Figure 1) and cluster 1 is the
// FP cluster (C2); N-cluster machines number their clusters 0..N−1.
type ClusterID int8

// Cluster identifiers and the sentinel for "no preference".
const (
	IntCluster ClusterID = 0
	FPCluster  ClusterID = 1
	// AnyCluster is returned by steering helpers when the instruction has
	// no placement constraint.
	AnyCluster ClusterID = -1
)

// String returns "int"/"fp" for the two paper clusters (their roles on the
// asymmetric machine), "cN" for higher-numbered clusters of an N-cluster
// machine, and "any" for the sentinel.
func (c ClusterID) String() string {
	switch {
	case c == IntCluster:
		return "int"
	case c == FPCluster:
		return "fp"
	case c > FPCluster:
		return fmt.Sprintf("c%d", int8(c))
	default:
		return "any"
	}
}

// Other returns the opposite cluster on a two-cluster machine. It is only
// meaningful there; N-cluster code paths select clusters by scanning or by
// the steering policy instead.
//
//dca:hotpath
func (c ClusterID) Other() ClusterID { return 1 - c }

// ClusterSet is a bitmask of clusters (bit c = cluster c); it reports where
// a logical register currently has valid mappings. config.MaxClusters ≤ 8
// keeps it in one byte.
type ClusterSet uint8

// Has reports whether cluster c is in the set.
//
//dca:hotpath
func (s ClusterSet) Has(c ClusterID) bool { return c >= 0 && s&(1<<uint(c)) != 0 }

// Add returns the set with cluster c included.
//
//dca:hotpath
func (s ClusterSet) Add(c ClusterID) ClusterSet { return s | 1<<uint(c) }

// Count returns the number of clusters in the set.
//
//dca:hotpath
func (s ClusterSet) Count() int { return bits.OnesCount8(uint8(s)) }

// Single returns the only cluster in the set, or AnyCluster when the set
// does not contain exactly one cluster.
//
//dca:hotpath
func (s ClusterSet) Single() ClusterID {
	if s.Count() != 1 {
		return AnyCluster
	}
	return ClusterID(bits.TrailingZeros8(uint8(s)))
}

// instState tracks a dynamic instruction through the pipeline.
type instState uint8

const (
	stateWaiting instState = iota // in an issue queue, sources pending
	stateIssued                   // executing on a functional unit or bus
	stateMemWait                  // load waiting in the LSQ for access
	stateDone                     // result produced, awaiting commit
	stateRetired                  // committed
)

// physReg names a physical register within one cluster's file.
type physReg int16

// noPhys marks an absent physical register operand (zero register,
// immediate, or no destination).
const noPhys physReg = -1

// noPrevMapping returns a per-cluster mapping record with every entry
// absent; newly created dynamic instructions start from it.
func noPrevMapping() (p [config.MaxClusters]physReg) {
	for i := range p {
		p[i] = noPhys
	}
	return p
}

// DynInst is one in-flight dynamic instruction (or inserted copy).
type DynInst struct {
	// Seq is the global dispatch order, copies included; it orders the
	// ROB and the issue-queue age priority.
	Seq uint64
	// ProgSeq is the committed-path dynamic instruction number from the
	// emulator; copies share their consumer's ProgSeq.
	ProgSeq uint64
	// PC is the static instruction index.
	PC int
	// Inst is the architectural instruction (zero-valued for copies).
	Inst isa.Inst
	// Cluster is the cluster the instruction was dispatched to.
	Cluster ClusterID

	// IsCopy marks inter-cluster copy instructions. For a copy, srcPhys[0]
	// is read in cluster SrcCluster and destPhys is written in Cluster.
	IsCopy     bool
	SrcCluster ClusterID

	// FetchID is the probe-scoped fetch id (see Probe.Fetch); copies get
	// their own id at insertion. Zero while no probe is attached — the id
	// counter only advances under the probe guard.
	FetchID uint64

	// Renamed operands.
	numSrcs  int
	srcPhys  [2]physReg
	srcReady [2]bool
	// srcViaCopy marks sources whose value an inserted inter-cluster copy
	// delivers. It feeds only the probe's stall taxonomy (copy-wait vs
	// operand-wait); the simulation itself never reads it.
	srcViaCopy [2]bool
	destPhys   physReg
	// destLogical is the architectural destination (NoReg if none).
	destLogical isa.Reg
	// prevMapping records the per-cluster physical registers that held
	// destLogical before this instruction, freed at commit. Only the first
	// NumClusters entries are meaningful; prevMask has a bit set for each
	// cluster holding one, so commit releases without scanning.
	prevMapping [config.MaxClusters]physReg
	prevMask    uint8

	// State machine.
	state instState
	// issueReady caches IssueReady while the instruction sits in an issue
	// queue: sources only become ready (never unready), so the flag is
	// computed at Add and raised by wakeReg, sparing the per-entry source
	// loop on every selection scan.
	issueReady bool
	readyCycle uint64 // earliest cycle the instruction may issue
	completeAt uint64 // cycle the result becomes available
	issuedAt   uint64
	// nextEvt links instructions completing on the same cycle into the
	// machine's timing wheel (intrusive list: scheduling an event never
	// allocates).
	nextEvt *DynInst

	// prevQ/nextQ link the instruction into its issue queue's age-ordered
	// window (intrusive doubly-linked list: Remove unlinks in O(1) instead
	// of shifting a slice). Nil outside the queue.
	prevQ, nextQ *DynInst

	// nextWaiter and waiterReg link the instruction into its issue queue's
	// per-physical-register waiter lists (one slot per distinct pending
	// source register): when the register becomes ready, the queue walks
	// the list instead of scanning every entry. waiterReg names the
	// register each slot is chained under, disambiguating which link to
	// follow during a walk.
	nextWaiter [2]*DynInst
	waiterReg  [2]physReg

	// Memory operation fields (from the oracle).
	isLoad, isStore bool
	memAddr         uint64
	memWidth        int
	// eaDone distinguishes the two completion events of a memory
	// instruction: effective-address computation, then (for loads) the
	// cache access.
	eaDone bool
	// lsqAddrKnown and lsqAccessed are the instruction's load/store queue
	// state (kept inline so the LSQ needs no per-entry allocation):
	// effective address computed, and — for loads — already sent to the
	// cache or forwarded, so it is not issued twice.
	lsqAddrKnown bool
	lsqAccessed  bool

	// Branch fields.
	isBranch     bool
	mispredicted bool

	// waitingConsumer is set on copies when some instruction in the
	// destination cluster stalled waiting for this copy's value; such
	// communications are the paper's "critical" ones (Figure 5).
	waitingConsumer bool

	// fifo is the FIFO index the instruction occupies in IQFIFO mode.
	fifo int
}

// HasDest reports whether the instruction allocates a destination register.
//
//dca:hotpath
func (d *DynInst) HasDest() bool { return d.destPhys != noPhys }

// DestReg returns the architectural destination register (isa.NoReg when
// the instruction writes none); probes use it to label copies and
// dependences without reaching into rename state.
func (d *DynInst) DestReg() isa.Reg { return d.destLogical }

// IsLoad reports whether the instruction is a load.
func (d *DynInst) IsLoad() bool { return d.isLoad }

// IsStore reports whether the instruction is a store.
func (d *DynInst) IsStore() bool { return d.isStore }

// SrcsReady reports whether every source operand is available.
//
//dca:hotpath
func (d *DynInst) SrcsReady() bool {
	for i := 0; i < d.numSrcs; i++ {
		if !d.srcReady[i] {
			return false
		}
	}
	return true
}

// IssueReady reports whether the instruction may leave the issue queue.
// Stores issue on their address operand alone (source 0): the effective
// address is computed as soon as the base register is available, while the
// data operand is only needed at commit, when the store writes memory.
//
//dca:hotpath
func (d *DynInst) IssueReady() bool {
	if d.isStore {
		return d.numSrcs == 0 || d.srcReady[0]
	}
	return d.SrcsReady()
}
