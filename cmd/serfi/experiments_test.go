package main

import (
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/dist"
	"serfi/internal/exp"
	"serfi/internal/fault"
	"serfi/internal/npb"
)

// TestExperimentsRunJobs: every `serfi experiments -run X -join` submits the
// matrix X has always run: the same scenarios, seeds, fault domains and
// tracing. Each set is written out here apart from exp.Artefacts, so a
// catalogue entry whose set narrows, widens or loses its domains or tracing
// fails. A coordinator stub records each submission and refuses it, so
// nothing is simulated; fig1 submits nothing and prints Figure 1.
func TestExperimentsRunJobs(t *testing.T) {
	is := func(sc npb.Scenario) bool { return sc.App == "IS" }
	all := func(npb.Scenario) bool { return true }
	want := map[string]struct {
		keep       func(npb.Scenario) bool
		allDomains bool
		traceProp  bool
	}{
		"all":    {keep: all},
		"table1": {keep: all},
		"table2": {keep: func(sc npb.Scenario) bool { return sc.App == "IS" && sc.Mode != npb.Serial }},
		"table3": {keep: func(sc npb.Scenario) bool {
			return sc.ISA == "armv7" && sc.Mode == npb.MPI && (sc.App == "MG" || sc.App == "IS")
		}},
		"table4": {keep: func(sc npb.Scenario) bool {
			return sc.ISA == "armv8" && ((sc.Mode == npb.OMP && (sc.App == "LU" || sc.App == "SP")) ||
				(sc.Mode == npb.MPI && sc.App == "FT"))
		}},
		"domains":    {keep: is, allDomains: true},
		"prop":       {keep: is, traceProp: true},
		"sens":       {keep: is},
		"fig2":       {keep: func(sc npb.Scenario) bool { return sc.ISA == "armv7" }},
		"fig3":       {keep: func(sc npb.Scenario) bool { return sc.ISA == "armv8" }},
		"macro":      {keep: all},
		"vulnwindow": {keep: all},
		"mine":       {keep: all},
	}

	var (
		mu  sync.Mutex
		got []dist.SubmitRequest
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req dist.SubmitRequest
		if r.URL.Path != dist.PathSubmit || json.NewDecoder(r.Body).Decode(&req) != nil {
			t.Errorf("unexpected request %s", r.URL.Path)
		}
		mu.Lock()
		got = append(got, req)
		mu.Unlock()
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"recorded"}`))
	}))
	defer srv.Close()

	names := []string{"all"}
	for _, a := range exp.Artefacts {
		names = append(names, a.Name)
	}
	if len(names) != len(want)+1 {
		t.Errorf("-run takes %v, want fig1 and %v", names, slices.Sorted(maps.Keys(want)))
	}
	// take returns the submissions recorded since its last call.
	take := func() []dist.SubmitRequest {
		mu.Lock()
		defer mu.Unlock()
		subs := got
		got = nil
		return subs
	}
	for _, name := range names {
		code, stdout, stderr := cli(t, "experiments", "-run", name, "-n", "3", "-seed", "7", "-join", srv.URL)
		got := take()
		if name == "fig1" {
			if code != 0 || stdout != exp.Figure1() || got != nil {
				t.Errorf("-run fig1: exit %d, %d submissions, stdout %q", code, len(got), stdout)
			}
			continue
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("-run %s: not a known artefact", name)
			continue
		}
		if code != 1 || len(got) != 1 {
			t.Errorf("-run %s: exit %d after %d submissions, want 1 after 1\n%s", name, code, len(got), stderr)
			continue
		}
		domains := []fault.Model{fault.Reg}
		if w.allDomains {
			domains = fault.Models()
		}
		var scs []npb.Scenario
		for _, sc := range npb.Scenarios() {
			if w.keep(sc) {
				scs = append(scs, sc)
			}
		}
		jobs := dist.WireJobs(campaign.New(campaign.Models(domains...)).JobsFor(scs, 7))
		req := got[0]
		if !slices.Equal(req.Jobs, jobs) || req.Faults != 3 || req.TraceProp != w.traceProp {
			t.Errorf("-run %s submitted %d jobs, %d faults, trace %v; want %d jobs, 3 faults, trace %v",
				name, len(req.Jobs), req.Faults, req.TraceProp, len(jobs), w.traceProp)
		}
	}
}
