package fi_test

import (
	"context"
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
// counters of a fresh Clone that ran only that fault.
type runKind int

const (
	decided   runKind = iota // dead fault: no machine, nothing simulated
	converged                // pruned at a checkpoint boundary
	simulated                // ran to its end
)

// injectKind runs p through a clone of cs and classifies the run.
func injectKind(cs *fi.CheckpointSet, d fault.Domain, g *fi.Golden, p fi.Fault) (fi.Result, runKind) {
	c := cs.Clone()
	res := c.InjectPoint(d, g, p)
	sim, _ := c.SimulatedInstructions()
	switch pruned, _ := c.PruneStats(); {
	case pruned == 1 && sim == 0:
		return res, decided
	case pruned == 1:
		return res, converged
	}
	return res, simulated
}

// TestDeadFaultsMatchSimulation is the admission ticket of dead-fault
// pruning: over six fault domains and three scenarios every result of the
// product path (InjectPoint on a delta-chain set, both rules on) equals a
// rule-free reference field for field, while dead-fault decisions,
// convergence on dead cache-line state, exact convergence and full
// simulation all occur. On the cheapest scenario the reference is
// fi.InjectDomain from reset — which restores nothing, compares nothing and
// consults no record — and FullCopy and empty sets are held to it too and
// shown to take neither shortcut. On the other two it is that FullCopy set
// (DESIGN.md §3.2: no dead-fault rule, exact equality only; pinned equal to
// from-reset by TestCOWCheckpointsGoldenCompat), which starts a fault at its
// checkpoint and not at reset: tier-1 time is a budget, and armv7/MG/OMP-2
// from reset was 3.5 G reference instructions.
func TestDeadFaultsMatchSimulation(t *testing.T) {
	n := 64 // per domain and scenario; -short (the CI race job) trims the references
	if testing.Short() {
		n = 8
	}
	var nDecided, nCanonical, nExact, nSimulated atomic.Int64
	t.Run("scenarios", func(t *testing.T) {
		for i, sc := range []npb.Scenario{
			{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1},
			{App: "MG", Mode: npb.OMP, ISA: "armv7", Cores: 2},
			{App: "IS", Mode: npb.MPI, ISA: "armv8", Cores: 2},
		} {
			fromReset := i == 0
			t.Run(sc.ID(), func(t *testing.T) {
				t.Parallel()
				img, cfg, err := npb.BuildScenario(sc)
				if err != nil {
					t.Fatal(err)
				}
				g, err := fi.RunGolden(img, cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				cs := checkpoints(t, img, cfg, g, fi.DefaultCheckpoints)
				full, err := fi.BuildCheckpointsOpt(context.Background(), img, cfg, g,
					fi.CheckpointOptions{N: fi.DefaultCheckpoints, FullCopy: true})
				if err != nil {
					t.Fatal(err)
				}
				var empty *fi.CheckpointSet
				if fromReset {
					empty = checkpoints(t, img, cfg, g, 0)
				}
				// The sets, image and golden record serve concurrent executors.
				for _, model := range []fault.Model{fault.Reg, fault.Mem, fault.IMem, fault.CacheTag, fault.CacheDirty, fault.CacheRepl} {
					t.Run(model.String(), func(t *testing.T) {
						t.Parallel()
						d, err := fi.NewDomain(model, img, cfg, g)
						if err != nil {
							t.Fatal(err)
						}
						cacheModel := model == fault.CacheTag || model == fault.CacheDirty || model == fault.CacheRepl
						shown := 0 // dead mem faults run through the from-reset scenario's sets: a few suffice
						for i, p := range fi.List(16, n, d) {
							var want fi.Result
							fkind := runKind(-1) // how the FullCopy set scored p, once it has
							if fromReset {
								want = fi.InjectDomain(img, cfg, g, d, p)
							} else {
								want, fkind = injectKind(full, d, g, p)
							}
							got, kind := injectKind(cs, d, g, p)
							if got != want {
								t.Errorf("fault %d (%s): product path %+v != rule-free reference %+v", i, p, got, want)
							}
							switch {
							case kind == decided:
								nDecided.Add(1)
								if model != fault.Mem {
									t.Errorf("fault %d (%s) decided without simulation", i, p)
								}
							case kind == simulated:
								nSimulated.Add(1)
							case !cacheModel:
								nExact.Add(1) // no cache strike, no dead cache state: bit-identical
							}
							if fromReset && kind != simulated && (kind != decided || shown < 4) {
								// The other sets reach the same result the long way.
								var fgot fi.Result
								if fgot, fkind = injectKind(full, d, g, p); fgot != want {
									t.Errorf("fault %d (%s): FullCopy %+v != from reset %+v", i, p, fgot, want)
								}
								if kind == decided {
									shown++
									c := empty.Clone()
									if egot := c.InjectPoint(d, g, p); egot != want {
										t.Errorf("fault %d (%s): empty set %+v != from reset %+v", i, p, egot, want)
									}
									if sim, _ := c.SimulatedInstructions(); sim != want.Retired {
										t.Errorf("fault %d (%s): empty set simulated %d of %d instructions", i, p, sim, want.Retired)
									}
								}
							}
							switch {
							case fkind < 0 || kind == simulated:
							case kind == decided:
								if fkind != simulated {
									t.Errorf("fault %d (%s): a FullCopy set did not simulate a dead fault", i, p)
								}
							case cacheModel && fkind == converged:
								nExact.Add(1)
							case cacheModel:
								nCanonical.Add(1) // only the dead-line rule sees this run converge
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
	t.Logf("decided %d, converged on dead cache state %d, converged exactly %d, simulated %d",
		nDecided.Load(), nCanonical.Load(), nExact.Load(), nSimulated.Load())
	if nDecided.Load() == 0 || nCanonical.Load() == 0 || nExact.Load() == 0 || nSimulated.Load() == 0 {
		t.Error("one of the four ways to score a run never occurred: the differential lost its teeth")
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
	g, err := fi.RunGolden(img, cfg, 0)
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
			want := fi.InjectDomain(img, cfg, g, d, p)
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
	g, err := fi.RunGolden(&rwx, cfg, 0)
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
		want := fi.InjectDomain(&rwx, cfg, g, d, p)
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
	g, err := fi.RunGolden(img, cfg, 0)
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
			want := fi.InjectDomain(img, cfg, g, d, p)
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
