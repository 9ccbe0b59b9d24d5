package sens

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/npb"
	"serfi/internal/obs"
)

// recordedCampaigns runs one small recorded+traced campaign matrix over a
// single scenario across four fault domains and returns the scenario and
// the live results.
func recordedCampaigns(t *testing.T, st campaign.Store) (npb.Scenario, []*campaign.Result) {
	t.Helper()
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	jobs := []campaign.ScenarioJob{
		{Scenario: sc, Domain: fault.Reg, Seed: 21},
		{Scenario: sc, Domain: fault.IMem, Seed: 21},
		{Scenario: sc, Domain: fault.Mem, Seed: 21},
		{Scenario: sc, Domain: fault.CacheTag, Seed: 21},
	}
	opts := []campaign.Option{
		campaign.Faults(8), campaign.Workers(2),
		campaign.RecordRuns(), campaign.TraceProp(),
	}
	if st != nil {
		opts = append(opts, campaign.WithStore(st))
	}
	results, err := campaign.New(opts...).RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}
	return sc, results
}

func TestAnalyzeAttribution(t *testing.T) {
	sc, results := recordedCampaigns(t, nil)
	ctx, err := NewContext(sc, results[0].Golden)
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	rep, err := Analyze(ctx, results)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}

	if want := 4 * 8; rep.Faults != want {
		t.Fatalf("attributed %d rows, want %d", rep.Faults, want)
	}
	if rep.Traced == 0 {
		t.Fatal("no traced rows joined despite TraceProp")
	}
	for _, tb := range []*Table{rep.Registers, rep.Functions, rep.Pages, rep.Structures} {
		if tb.Len() == 0 {
			t.Fatalf("%s table is empty", tb.Title)
		}
	}
	// Every axis accounts for exactly the rows its domains contribute:
	// registers see reg (8), pages see imem+mem (16), structures see
	// cachetag (8), functions see reg+imem (16).
	checkTotal := func(tb *Table, want int) {
		t.Helper()
		n := 0
		for _, c := range tb.Cells() {
			n += c.N()
		}
		if n != want {
			t.Fatalf("%s table folds %d rows, want %d", tb.Title, n, want)
		}
	}
	checkTotal(rep.Registers, 8)
	checkTotal(rep.Pages, 16)
	checkTotal(rep.Structures, 8)
	checkTotal(rep.Functions, 16)
	if got := rep.RowsByDomain[fault.Mem]; got != 8 {
		t.Fatalf("RowsByDomain[mem] = %d, want 8", got)
	}

	// The IS image has real symbols: the function axis must resolve at
	// least one named function, not just the unattributed bucket.
	named := false
	for _, c := range rep.Functions.Cells() {
		if c.Key != Unattributed {
			named = true
		}
	}
	if !named {
		t.Fatal("function table resolved no named function")
	}

	text := rep.Text(0)
	for _, want := range []string{
		"per-register vulnerability", "per-function vulnerability",
		"per-page vulnerability", "per-cache-structure vulnerability",
		"advisor:", "95% CI",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("report text lacks %q:\n%s", want, text)
		}
	}

	page := HTML([]*Report{rep})
	for _, want := range []string{"<!doctype html", "</html>", sc.ID(), "serfi sensitivity heatmap"} {
		if !strings.Contains(page, want) {
			t.Fatalf("HTML lacks %q", want)
		}
	}
}

// TestReportFromDBAloneMatchesLive pins the tentpole reproducibility
// property: analyzing the rows reloaded from the JSONL database — with the
// join context rebuilt from nothing but the stored scenario ID and golden
// summary — renders the same report text as analyzing the live results.
func TestReportFromDBAloneMatchesLive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	sc, live := recordedCampaigns(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	liveCtx, err := NewContext(sc, live[0].Golden)
	if err != nil {
		t.Fatal(err)
	}
	liveRep, err := Analyze(liveCtx, live)
	if err != nil {
		t.Fatal(err)
	}

	st2, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := st2.Query(campaign.Query{HasRuns: true})
	if len(reloaded) != len(live) {
		t.Fatalf("reloaded %d recorded campaigns, want %d", len(reloaded), len(live))
	}
	dbCtx, err := NewContext(reloaded[0].Scenario, reloaded[0].Golden)
	if err != nil {
		t.Fatal(err)
	}
	dbRep, err := Analyze(dbCtx, reloaded)
	if err != nil {
		t.Fatal(err)
	}

	liveText, dbText := liveRep.Text(0), dbRep.Text(0)
	if liveText != dbText {
		t.Fatalf("report from DB diverges from live report:\nlive:\n%s\ndb:\n%s", liveText, dbText)
	}
	if HTML([]*Report{liveRep}) != HTML([]*Report{dbRep}) {
		t.Fatal("HTML heatmap from DB diverges from live heatmap")
	}
}

func TestAnalyzeRejectsUnrecordedResult(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	r := &campaign.Result{Scenario: sc, Domain: fault.Reg}
	ctx := &Context{Scenario: sc}
	if _, err := Analyze(ctx, []*campaign.Result{r}); err == nil {
		t.Fatal("Analyze accepted a result without per-run records")
	}
}

func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	sc, results := recordedCampaigns(t, nil)
	ctx, err := NewContext(sc, results[0].Golden)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(ctx, results)
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(rep, 0.25)
	var b strings.Builder
	reg.WriteText(&b)
	text := b.String()
	for _, fam := range []string{
		"serfi_sens_rows_total", "serfi_sens_traced_rows_total",
		"serfi_sens_cells", "serfi_sens_unmasked_ratio", "serfi_sens_report_seconds",
	} {
		if !strings.Contains(text, fam) {
			t.Fatalf("exposition lacks %s:\n%s", fam, text)
		}
	}
	// The inert-registry path must stay panic-free.
	NewMetrics(nil).Observe(rep, 0.1)
}

// TestJointAxesFollowFunctionTable: over a recorded reg+burst+imem report
// the heatmap's function axis is the Functions table order filtered to the
// joint keys (every joint function is scored there too, so none is left
// over), and the HTML renders byte-identically twice.
func TestJointAxesFollowFunctionTable(t *testing.T) {
	sc := npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	path := filepath.Join(t.TempDir(), "db.jsonl")
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []campaign.ScenarioJob
	for _, d := range []fault.Model{fault.Reg, fault.Burst, fault.IMem} {
		jobs = append(jobs, campaign.ScenarioJob{Scenario: sc, Domain: d, Seed: 21})
	}
	eng := campaign.New(campaign.Faults(12), campaign.Workers(2), campaign.RecordRuns(), campaign.WithStore(st))
	if _, err := eng.RunMatrix(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rows := st.Query(campaign.Query{HasRuns: true})
	ctx, err := NewContext(sc, rows[0].Golden)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(ctx, rows)
	if err != nil {
		t.Fatal(err)
	}

	funcs, _ := rep.JointAxes()
	var want []string
	for _, c := range rep.Functions.Cells() {
		if _, ok := rep.Joint[c.Key]; ok {
			want = append(want, c.Key)
		}
	}
	if len(rep.Joint) == 0 || !reflect.DeepEqual(funcs, want) || len(funcs) != len(rep.Joint) {
		t.Errorf("function axis %v, want %v (joint rows %d)", funcs, want, len(rep.Joint))
	}
	if a, b := HTML([]*Report{rep}), HTML([]*Report{rep}); a != b {
		t.Error("HTML heatmap differs between two renderings of one report")
	}
}
