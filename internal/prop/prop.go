// Package prop traces how an injected fault propagates through the
// simulated system. A campaign run answers WHAT happened (the Cho outcome);
// the tracer answers HOW FAR and HOW FAST the corruption travelled before
// the outcome was sealed: how many instructions until the first
// architectural divergence from the golden execution, when corrupt data
// first reached memory, when it crossed a core boundary, and whether it
// entered kernel state.
//
// The mechanism is a lockstep differential walk. The injection is re-run
// against a golden twin: both machines are positioned at the injection
// boundary (via the campaign's own checkpoint restore path when a
// CheckpointSet is available), the fault is armed on one of them, and both
// are advanced in fixed retired-instruction strides. At every stride
// boundary the twins are compared — per-core architectural state, machine
// time, and RAM over the union of pages either twin wrote since the last
// boundary. Pausing a machine at a retirement boundary and resuming is
// state-preserving (the checkpoint engine relies on the same property), so
// the faulty twin's final state and classification are bit-identical to the
// campaign run it re-traces; a differential test pins this.
//
// Event latencies are boundary-granular: an event recorded at latency L
// occurred in the window (L-Stride, L]. The memory comparison is complete
// despite only touching dirty pages: caches in this model hold tag/LRU/valid
// metadata while data lives in flat RAM, so the twins' RAM can only diverge
// through an actual store, and every store marks its page in the writer's
// dirty bitmap — the union of both bitmaps therefore covers every page that
// can differ.
package prop

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"serfi/internal/cache"
	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/mach"
	"serfi/internal/mem"
)

// Class is the escape class of a traced fault: the furthest boundary the
// corruption was observed to cross, ordered by severity. EscapeNone means
// the twins never diverged at any compared boundary (possible for faults
// whose effect is sealed entirely between two boundaries, or pure metadata
// flips absorbed before the first comparison).
type Class int

// Escape classes, in severity order.
const (
	EscapeNone   Class = iota // no divergence observed at any boundary
	EscapeTiming              // machine time diverged; architectural state never did
	EscapeReg                 // a core's architectural state diverged
	EscapeMem                 // corrupt data reached RAM
	EscapeXCore               // corruption observed on a core other than the fault's
	EscapeKernel              // corruption reached kernel state or kernel memory
	NumClasses
)

var classNames = [NumClasses]string{"none", "timing", "reg", "mem", "xcore", "kernel"}

func (c Class) String() string {
	if c >= 0 && c < NumClasses {
		return classNames[c]
	}
	return "?"
}

// ParseClass inverts String.
func ParseClass(s string) (Class, error) {
	for i, n := range classNames {
		if s == n {
			return Class(i), nil
		}
	}
	return 0, fmt.Errorf("prop: unknown escape class %q", s)
}

// MarshalJSON renders the class as its name, keeping JSONL rows
// self-describing and stable if class numbering ever gains members.
func (c Class) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON parses the name form.
func (c *Class) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseClass(s)
	if err != nil {
		return err
	}
	*c = v
	return nil
}

// Trace is the propagation record of one injection. All latencies are
// measured from the injection boundary, in retired instructions of the
// faulty machine (and cycles where noted), at stride granularity; -1 marks
// an event never observed during the walk.
type Trace struct {
	// Escape is the most severe class observed.
	Escape Class `json:"escape"`
	// ArchInstr/ArchCyc: latency to the first architectural divergence
	// (register state or RAM) — the paper-facing latency-to-first-corruption.
	ArchInstr int64 `json:"arch_i"`
	ArchCyc   int64 `json:"arch_c"`
	// TimingInstr: latency to the first machine-time skew at an
	// architecturally identical boundary (the uncore-fault signature).
	TimingInstr int64 `json:"timing_i"`
	// MemInstr: latency to the first boundary where RAM held corrupt data.
	MemInstr int64 `json:"mem_i"`
	// XCoreInstr: latency to the first corruption observed on a core other
	// than the fault's target (or on a second distinct core for faults in
	// shared state).
	XCoreInstr int64 `json:"xcore_i"`
	// KernelInstr: latency to the first corruption in kernel state — a
	// diverged core running in kernel mode, or a corrupt page outside every
	// user-accessible region.
	KernelInstr int64 `json:"kernel_i"`
}

// emptyTrace is the starting record: no events observed.
func emptyTrace() Trace {
	return Trace{ArchInstr: -1, ArchCyc: -1, TimingInstr: -1, MemInstr: -1, XCoreInstr: -1, KernelInstr: -1}
}

// DefaultStride is the lockstep comparison granularity in retired
// instructions. Small enough that latency histograms resolve the
// short-propagation mass, large enough that the walk's comparison cost
// stays well below the simulation cost between boundaries.
const DefaultStride = 2048

// Tracer re-runs injections of one scenario against a golden twin. It is
// safe for concurrent use: every Trace call stamps out its own pair of
// machines (deliberately not the checkpoint engine's pool — tracer twins
// break the memory tracking invariant and must never be recycled into it).
type Tracer struct {
	img *cc.Image
	cfg mach.Config
	g   *fi.Golden
	cs  *fi.CheckpointSet // optional restore accelerator; nil = from reset

	// Stride is the comparison granularity; 0 means DefaultStride.
	Stride uint64
}

// NewTracer builds a tracer over one scenario. cs may be nil, in which case
// every twin starts from reset exactly like fi.InjectDomain.
func NewTracer(img *cc.Image, cfg mach.Config, g *fi.Golden, cs *fi.CheckpointSet) *Tracer {
	return &Tracer{img: img, cfg: cfg, g: g, cs: cs}
}

// targetCore returns the core a fault point is anchored to, or -1 for
// faults in shared state (memory domains, the shared L2), where no single
// core owns the corruption.
func targetCore(p fault.Point) int {
	switch p.Domain {
	case fault.Reg, fault.Burst:
		return p.Core
	case fault.CacheTag, fault.CacheDirty, fault.CacheRepl:
		if cache.Level(p.Level) == cache.L2 {
			return -1
		}
		return p.Core
	}
	return -1 // Mem, IMem
}

// position places m at the injection boundary: restored from the nearest
// checkpoint when available, otherwise installed from reset, then advanced
// to injectAt. The machine stops having just committed instruction
// injectAt, so an armed injection hook has already fired.
func (t *Tracer) position(m *mach.Machine, injectAt, budget uint64) error {
	if t.cs == nil || !t.cs.RestoreNearest(m, injectAt) {
		t.img.InstallTo(m)
	}
	m.SetInstrBudget(injectAt)
	if stop := m.Run(budget); stop != mach.StopInstrBudget {
		return fmt.Errorf("prop: twin stopped before injection boundary: %v at %d (want %d)", stop, m.TotalRetired, injectAt)
	}
	return nil
}

// Trace re-runs the injection of fault point p and records its propagation.
// The returned Outcome is the faulty twin's classification, bit-identical
// to the campaign Result for the same point (pinned by test); callers use
// it to cross-check rather than re-derive.
func (t *Tracer) Trace(d fault.Domain, p fault.Point) (Trace, fi.Outcome, error) {
	t0 := time.Now()
	injectAt := t.g.AppStart + p.Index
	budget := fi.HangBudget(t.g.Cycles)
	stride := t.Stride
	if stride == 0 {
		stride = DefaultStride
	}

	mf, mg := mach.New(t.cfg), mach.New(t.cfg)
	mf.InjectAt = injectAt
	mf.Inject = func(mm *mach.Machine) { d.Apply(mm, p) }
	if err := t.position(mf, injectAt, budget); err != nil {
		return Trace{}, 0, err
	}
	if err := t.position(mg, injectAt, budget); err != nil {
		return Trace{}, 0, err
	}

	// From here the dirty bitmaps serve as pure write logs between
	// boundaries. The pre-injection writes they record are identical on
	// both twins by construction, so discarding them loses nothing.
	mf.Mem.TakeDirtyPages()
	mg.Mem.TakeDirtyPages()
	cyc0 := mf.MaxCycles()

	tr := emptyTrace()
	target := targetCore(p)
	divergedCores := 0
	var coreDiverged []bool
	stopF := mach.StopInstrBudget
	goldenHalted := false

	// boundary compares the twins at the current pause and folds any new
	// events into tr, first-occurrence only.
	boundary := func() {
		instr := int64(mf.TotalRetired - injectAt)
		archBefore := tr.ArchInstr >= 0

		// Per-core architectural state.
		if coreDiverged == nil {
			coreDiverged = make([]bool, len(mf.Cores))
		}
		for i := range mf.Cores {
			cf, cg := &mf.Cores[i], &mg.Cores[i]
			same := cf.Regs == cg.Regs && cf.F == cg.F && cf.PC == cg.PC &&
				cf.Flags == cg.Flags && cf.Kernel == cg.Kernel &&
				cf.IRQOn == cg.IRQOn && cf.Sys == cg.Sys
			if same {
				continue
			}
			if tr.ArchInstr < 0 {
				tr.ArchInstr, tr.ArchCyc = instr, int64(mf.MaxCycles()-cyc0)
			}
			if !coreDiverged[i] {
				coreDiverged[i] = true
				divergedCores++
				xcore := (target >= 0 && i != target) || (target < 0 && divergedCores >= 2)
				if xcore && tr.XCoreInstr < 0 {
					tr.XCoreInstr = instr
				}
			}
			if cf.Kernel && tr.KernelInstr < 0 {
				tr.KernelInstr = instr
			}
		}

		// RAM over the union of pages either twin wrote since the last
		// boundary. Both lists are sorted; merge them.
		pf, pg := mf.Mem.TakeDirtyPages(), mg.Mem.TakeDirtyPages()
		for len(pf) > 0 || len(pg) > 0 {
			var off uint32
			switch {
			case len(pg) == 0 || (len(pf) > 0 && pf[0] < pg[0]):
				off = pf[0]
				pf = pf[1:]
			case len(pf) == 0 || pg[0] < pf[0]:
				off = pg[0]
				pg = pg[1:]
			default:
				off = pf[0]
				pf, pg = pf[1:], pg[1:]
			}
			a, b := mf.Mem.PageAt(off), mg.Mem.PageAt(off)
			if bytes.Equal(a, b) {
				continue
			}
			if tr.ArchInstr < 0 {
				tr.ArchInstr, tr.ArchCyc = instr, int64(mf.MaxCycles()-cyc0)
			}
			if tr.MemInstr < 0 {
				tr.MemInstr = instr
			}
			if tr.KernelInstr < 0 {
				// Locate the first corrupt byte; corruption outside every
				// user-accessible region is kernel state.
				i := 0
				for i < len(a) && a[i] == b[i] {
					i++
				}
				r := mg.Mem.FindRegion(off + uint32(i))
				if r == nil || r.Perm&mem.PermUser == 0 {
					tr.KernelInstr = instr
				}
			}
		}

		// Machine-time skew at an architecturally aligned boundary. Only
		// comparable while the twins sit at the same retirement count.
		if tr.TimingInstr < 0 && mf.TotalRetired == mg.TotalRetired && mf.MaxCycles() != mg.MaxCycles() {
			tr.TimingInstr = instr
		}

		if !archBefore && tr.ArchInstr >= 0 {
			obsDivergenceInstr.Observe(float64(tr.ArchInstr))
		}
	}

	boundary() // latency 0: the fault has fired at the positioning stop
	for stopF == mach.StopInstrBudget {
		next := mf.TotalRetired + stride
		mf.SetInstrBudget(next)
		stopF = mf.Run(budget)
		if !goldenHalted {
			mg.SetInstrBudget(next)
			switch stopG := mg.Run(0); stopG {
			case mach.StopInstrBudget:
			case mach.StopHalted:
				goldenHalted = true // static reference from here on
			default:
				return Trace{}, 0, fmt.Errorf("prop: golden twin stopped unexpectedly: %v at %d", stopG, mg.TotalRetired)
			}
		}
		boundary()
	}

	tr.Escape = escapeOf(tr)
	outcome := fi.Classify(mf, t.g, stopF)
	obsTraces[tr.Escape].Inc()
	obsTraceSeconds.Observe(time.Since(t0).Seconds())
	return tr, outcome, nil
}

// escapeOf derives the severity-max class from the recorded latencies.
func escapeOf(t Trace) Class {
	switch {
	case t.KernelInstr >= 0:
		return EscapeKernel
	case t.XCoreInstr >= 0:
		return EscapeXCore
	case t.MemInstr >= 0:
		return EscapeMem
	case t.ArchInstr >= 0:
		return EscapeReg
	case t.TimingInstr >= 0:
		return EscapeTiming
	}
	return EscapeNone
}
