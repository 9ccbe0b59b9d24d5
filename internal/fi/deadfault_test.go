package fi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"serfi/internal/cc"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/mach"
	"serfi/internal/mem"
	"serfi/internal/npb"
)

// runKind says how a delta-chain set scored one fault, read from the
// counters of a fresh Clone that ran only that fault (never from the
// process-wide obs counters: subtests run in parallel).
type runKind int

const (
	decided   runKind = iota // dead word (page-touch rule): no machine, nothing simulated
	deadSet                  // dead cache set (set-stamp rule): no machine, nothing simulated
	converged                // pruned at a checkpoint boundary by state equality
	deadState                // pruned at a checkpoint boundary modulo dead registers and slots
	simulated                // ran to its end
)

// injectKind runs p through a clone of cs and classifies the run.
func injectKind(cs *fi.CheckpointSet, d fault.Domain, g *fi.Golden, p fi.Fault) (fi.Result, runKind) {
	c := cs.Clone()
	res, _ := c.InjectPointContext(context.Background(), d, g, p)
	sim, _ := c.SimulatedInstructions()
	sets, state := c.DeadRuns()
	switch pruned, _ := c.PruneStats(); {
	case sets == 1:
		return res, deadSet
	case pruned == 1 && sim == 0:
		return res, decided
	case state == 1:
		return res, deadState
	case pruned == 1:
		return res, converged
	}
	return res, simulated
}

// regen rewrites deadRefPath from live from-reset runs instead of reading it:
//
//	go test ./internal/fi -run TestDeadFaultsMatchSimulation -regen
var regen = flag.Bool("regen", false, "rewrite "+deadRefPath+" from from-reset runs")

// deadRefPath holds TestDeadFaultsMatchSimulation's rule-free references: one
// line per (scenario, domain, fault index), each the result of that fault
// injected through an empty set (from reset, no record consulted, nothing
// compared). They change only when the interpreter's semantics do.
const deadRefPath = "testdata/deadfault_ref.jsonl"

// refLine is one reference run: the fault point as fault.Point prints it and
// the fields of its Result.
type refLine struct {
	Scenario string `json:"scenario"`
	Domain   string `json:"domain"`
	Fault    int    `json:"fault"`
	Point    string `json:"point"`
	Outcome  string `json:"outcome"`
	Retired  uint64 `json:"retired"`
	Cycles   uint64 `json:"cycles"`
	Exit     int    `json:"exit"`
	Signal   int    `json:"signal"`
}

func lineOf(sc npb.Scenario, model fault.Model, i int, r fi.Result) refLine {
	return refLine{sc.ID(), model.String(), i, r.Fault.String(), r.Outcome.String(), r.Retired, r.Cycles, r.ExitCode, r.Signal}
}

// readDeadRefs returns the committed references by scenario ID and domain,
// each list in fault-index order.
func readDeadRefs(t *testing.T) map[[2]string][]refLine {
	t.Helper()
	data, err := os.ReadFile(deadRefPath)
	if err != nil {
		t.Fatalf("%v (write it with -regen)", err)
	}
	refs := map[[2]string][]refLine{}
	for n, text := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var l refLine
		if err := json.Unmarshal([]byte(text), &l); err != nil {
			t.Fatalf("%s line %d: %v", deadRefPath, n+1, err)
		}
		key := [2]string{l.Scenario, l.Domain}
		if l.Fault != len(refs[key]) {
			t.Fatalf("%s line %d: fault %d of %s %s out of order", deadRefPath, n+1, l.Fault, l.Scenario, l.Domain)
		}
		refs[key] = append(refs[key], l)
	}
	return refs
}

// TestDeadFaultsMatchSimulation is the admission ticket of dead-fault
// pruning: over six fault domains and three scenarios every result of the
// product path (InjectPointContext on a delta-chain set, every rule on) equals the
// rule-free reference field for field, while dead-word and dead-set
// decisions, convergence on dead cache-line state, convergence modulo dead
// registers and context slots, exact convergence and full simulation all
// occur. The reference of every fault is a run from reset through an empty
// set, which restores nothing, compares nothing and consults no record. The
// 64 faults per domain and scenario cost minutes from reset (armv7/MG/OMP-2
// alone is billions of instructions), so they are committed in deadRefPath
// and checked point by point against the rebuilt fault lists; -regen runs
// them live and rewrites the file, and CI fails on any difference. On the
// cheapest scenario the empty set is also run live on the faults the
// product path decides without a machine, to show it simulates them.
func TestDeadFaultsMatchSimulation(t *testing.T) {
	n := 64 // per domain and scenario; -short (the CI race job) checks the first 8
	if testing.Short() && !*regen {
		n = 8
	}
	scenarios := []npb.Scenario{
		{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1},
		{App: "MG", Mode: npb.OMP, ISA: "armv7", Cores: 2},
		{App: "IS", Mode: npb.MPI, ISA: "armv8", Cores: 2},
	}
	models := []fault.Model{fault.Reg, fault.Mem, fault.IMem, fault.CacheTag, fault.CacheDirty, fault.CacheRepl}
	var refs map[[2]string][]refLine
	if *regen {
		refs = map[[2]string][]refLine{}
	} else {
		refs = readDeadRefs(t)
	}
	var mu sync.Mutex // guards refs under -regen
	var nDecided, nCanonical, nExact, nSimulated atomic.Int64
	// The two rules sized on these scenarios: dead state on the MG reg
	// campaign, dead sets on cachetag.
	var nDeadState, nDeadSet atomic.Int64
	t.Run("scenarios", func(t *testing.T) {
		for i, sc := range scenarios {
			cheapest := i == 0
			t.Run(sc.ID(), func(t *testing.T) {
				t.Parallel()
				img, cfg, err := npb.BuildScenario(sc)
				if err != nil {
					t.Fatal(err)
				}
				g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				cs := checkpoints(t, img, cfg, g, fi.DefaultCheckpoints)
				empty := checkpoints(t, img, cfg, g, 0)
				// The sets, image and golden record serve concurrent executors.
				for _, model := range models {
					t.Run(model.String(), func(t *testing.T) {
						t.Parallel()
						d, err := fi.NewDomain(model, img, cfg, g)
						if err != nil {
							t.Fatal(err)
						}
						key := [2]string{sc.ID(), model.String()}
						faults := fi.List(16, n, d)
						var want []refLine
						if *regen {
							for i, p := range faults {
								res, _ := empty.InjectPointContext(context.Background(), d, g, p)
								want = append(want, lineOf(sc, model, i, res))
							}
							mu.Lock()
							refs[key] = want
							mu.Unlock()
						} else if want = refs[key]; len(want) < n {
							t.Fatalf("%s holds %d faults, want %d", deadRefPath, len(want), n)
						}
						cacheModel := model == fault.CacheTag || model == fault.CacheDirty || model == fault.CacheRepl
						shown := 0 // dead faults the empty set runs live: a few suffice
						for i, p := range faults {
							if want[i].Point != p.String() {
								t.Fatalf("fault %d: the list draws %s, %s holds %s", i, p, deadRefPath, want[i].Point)
							}
							res, kind := injectKind(cs, d, g, p)
							if got := lineOf(sc, model, i, res); got != want[i] {
								t.Errorf("fault %d (%s): product path %+v != rule-free reference %+v", i, p, got, want[i])
							}
							switch kind {
							case decided:
								nDecided.Add(1)
								if model != fault.Mem {
									t.Errorf("fault %d (%s) decided by the page-touch record", i, p)
								}
							case deadSet:
								if !cacheModel {
									t.Errorf("fault %d (%s) decided by the set stamps", i, p)
								} else if model == fault.CacheTag {
									nDeadSet.Add(1)
								}
							case deadState:
								if sc.ISA == "armv7" && sc.App == "MG" && model == fault.Reg {
									nDeadState.Add(1)
								}
							case simulated:
								nSimulated.Add(1)
							case converged:
								if !cacheModel {
									nExact.Add(1) // no cache strike, no dead cache state: bit-identical
								} else if exact, pruned := cs.PrunedExactly(d, g, p); !pruned {
									t.Errorf("fault %d (%s): pruned by the product path, not by its replay", i, p)
								} else if exact {
									nExact.Add(1)
								} else {
									nCanonical.Add(1) // only the dead-line rule sees this run converge
								}
							}
							if (kind == decided || kind == deadSet) && cheapest && shown < 4 {
								// The empty set reaches the same result the long way.
								shown++
								c := empty.Clone()
								res, _ := c.InjectPointContext(context.Background(), d, g, p)
								if got := lineOf(sc, model, i, res); got != want[i] {
									t.Errorf("fault %d (%s): empty set %+v != reference %+v", i, p, got, want[i])
								}
								if sim, _ := c.SimulatedInstructions(); sim != want[i].Retired {
									t.Errorf("fault %d (%s): empty set simulated %d of %d instructions", i, p, sim, want[i].Retired)
								}
							}
						}
					})
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	if *regen {
		var out bytes.Buffer
		for _, sc := range scenarios {
			for _, model := range models {
				for _, l := range refs[[2]string{sc.ID(), model.String()}] {
					b, err := json.Marshal(l)
					if err != nil {
						t.Fatal(err)
					}
					out.Write(append(b, '\n'))
				}
			}
		}
		if err := os.WriteFile(deadRefPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("decided %d, converged on dead cache state %d, converged exactly %d, simulated %d, dead state on MG reg %d, dead sets on cachetag %d",
		nDecided.Load(), nCanonical.Load(), nExact.Load(), nSimulated.Load(), nDeadState.Load(), nDeadSet.Load())
	if nDecided.Load() == 0 || nCanonical.Load() == 0 || nExact.Load() == 0 || nSimulated.Load() == 0 {
		t.Error("one of the four ways to score a run never occurred: the differential lost its teeth")
	}
	// The two later rules were sized on the full lists; the eight-fault
	// prefixes -short runs need not reach them (MG reg reaches none).
	if !testing.Short() && (nDeadState.Load() == 0 || nDeadSet.Load() == 0) {
		t.Error("no dead-state run on armv7/MG/OMP-2 reg or no dead-set decision on cachetag: the differential lost its teeth")
	}
}

// isSer builds the cheapest pinned scenario for the adversarial cases.
func isSer(t *testing.T) (*cc.Image, mach.Config) {
	t.Helper()
	img, cfg, err := npb.BuildScenario(npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	return img, cfg
}

// TestLiveMemStrikesAreSimulated: a mem strike on a page the golden run
// still accesses after the fault is never decided from the record — it is
// simulated, matches the from-reset run, and some of them corrupt the output.
func TestLiveMemStrikesAreSimulated(t *testing.T) {
	img, cfg := isSer(t)
	g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := checkpoints(t, img, cfg, g, fi.DefaultCheckpoints)
	d, err := fi.NewDomain(fault.Mem, img, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-lifespan, the first word of every writable page with a later access.
	index := (g.AppEnd - g.AppStart) / 2
	live, unmasked := 0, 0
	for _, r := range img.Regions {
		if r.Perm&mem.PermW == 0 {
			continue
		}
		for page := (r.Start + mem.PageBytes - 1) / mem.PageBytes; (page+1)*mem.PageBytes <= r.End; page++ {
			if g.PageTouch[page] <= g.AppStart+index {
				continue
			}
			live++
			p := fi.Fault{Domain: fault.Mem, Index: index, Addr: page * mem.PageBytes, Bit: 2}
			want := fromReset(t, img, cfg, g, d, p)
			got, kind := injectKind(cs, d, g, p)
			if got != want {
				t.Errorf("%s: product path %+v != from reset %+v", p, got, want)
			}
			if kind == decided {
				t.Errorf("%s: decided although page %d is accessed at instruction %d", p, page, g.PageTouch[page])
			}
			if fi.IsUnmasked(want.Outcome) {
				unmasked++
			}
		}
	}
	if live < 4 || unmasked == 0 {
		t.Errorf("%d live pages struck, %d strikes unmasked: want several and at least one", live, unmasked)
	}
}

// TestExecutablePagesAreNeverDead: fetches are not in the page-touch record,
// so a word of an executable region is never decided, however long ago its
// page was last loaded or stored. The image maps user text writable as well,
// as self-hosted test kernels do, which puts instruction words into the mem
// domain's target space on pages no data access ever touches.
func TestExecutablePagesAreNeverDead(t *testing.T) {
	img, cfg := isSer(t)
	rwx := *img
	rwx.Regions = append([]mem.Region(nil), img.Regions...)
	var text mem.Region
	for i := range rwx.Regions {
		if rwx.Regions[i].Name == "utext" {
			rwx.Regions[i].Perm |= mem.PermW
			text = rwx.Regions[i]
		}
	}
	g, err := fi.RunGoldenContext(context.Background(), &rwx, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if touch := g.PageTouch[text.Start/mem.PageBytes]; touch != 0 {
		t.Fatalf("the text page was loaded or stored at instruction %d: the case needs a page only fetches touch", touch)
	}
	cs := checkpoints(t, &rwx, cfg, g, fi.DefaultCheckpoints)
	d, err := fi.NewDomain(fault.Mem, &rwx, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	imem, err := fi.NewDomain(fault.IMem, &rwx, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	consumed := 0
	for _, p := range fi.List(5, 24, imem) {
		if !text.Contains(p.Addr) {
			continue // kernel text stays read-only: not a mem target
		}
		p.Domain = fault.Mem
		want := fromReset(t, &rwx, cfg, g, d, p)
		got, kind := injectKind(cs, d, g, p)
		if got != want {
			t.Errorf("%s: product path %+v != from reset %+v", p, got, want)
		}
		if kind == decided {
			t.Errorf("%s: an instruction word was decided from the data-access record", p)
		}
		if want.Outcome != fi.ONA {
			consumed++
		}
	}
	if consumed == 0 {
		t.Error("no strike on writable text was consumed: the case lost its teeth")
	}
}

// TestStraddlingWordNeedsBothPagesDead: an unaligned word whose last byte
// lies in the next page is decided only if both pages are dead.
func TestStraddlingWordNeedsBothPagesDead(t *testing.T) {
	img, cfg := isSer(t)
	g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cs := checkpoints(t, img, cfg, g, fi.DefaultCheckpoints)
	d, err := fi.NewDomain(fault.Mem, img, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	index := (g.AppEnd - g.AppStart) / 2
	at := g.AppStart + index
	seen := map[[2]bool]bool{}
	for _, r := range img.Regions {
		if r.Perm&mem.PermW == 0 {
			continue
		}
		for page := r.Start/mem.PageBytes + 1; (page+1)*mem.PageBytes <= r.End; page++ {
			dead := [2]bool{g.PageTouch[page-1] <= at, g.PageTouch[page] <= at}
			if seen[dead] || (page-1)*mem.PageBytes < r.Start {
				continue
			}
			seen[dead] = true
			p := fi.Fault{Domain: fault.Mem, Index: index, Addr: page*mem.PageBytes - 2, Bit: 20}
			want := fromReset(t, img, cfg, g, d, p)
			got, kind := injectKind(cs, d, g, p)
			if got != want {
				t.Errorf("%s: product path %+v != from reset %+v", p, got, want)
			}
			if (kind == decided) != (dead[0] && dead[1]) {
				t.Errorf("%s: pages dead %v, decided = %v", p, dead, kind == decided)
			}
		}
	}
	if len(seen) != 4 {
		t.Errorf("page pairs covered: %v, want dead/dead, dead/live, live/dead and live/live", seen)
	}
}
