package main

// The command-level pins: each runs the CLI the way a user does, over real
// files and loopback TCP, and holds what the commands print and record.
// They run in parallel, except the two that set -slowpath, a process
// global every machine reads.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"serfi/internal/dist"
)

// TestCancelResume: a 7-campaign matrix (IS serial under every fault
// domain) SIGINTed as its first record lands keeps what it recorded, prints
// the resume command and exits 130, and the resume finishes the matrix. One
// worker runs the campaigns one after another, so six are still to run
// when the signal arrives.
func TestCancelResume(t *testing.T) {
	t.Parallel()
	db := filepath.Join(t.TempDir(), "cancel.jsonl")
	args := []string{"campaign", "-n", "40", "-workers", "1", "-only", "armv8/IS/SER", "-faultmodel", "all", "-db", db}
	p := startProcess(t, args...)
	// The progress line of the first finished campaign is printed after its
	// record is stored: interrupt there.
	p.signal(t, os.Interrupt, "[  1/  7]")
	if code := p.exit(t); code != 130 {
		t.Fatalf("interrupted campaign: exit %d, want 130\n%s", code, p.out.String())
	}
	recorded := len(sortedLines(t, nil, db))
	if recorded < 1 || recorded >= 7 {
		t.Fatalf("%d campaigns recorded at the interrupt, want 1 to 6\n%s", recorded, p.out.String())
	}
	for _, want := range []string{
		fmt.Sprintf("interrupted: %d of 7 campaigns recorded in %s", recorded, db),
		"resume with: serfi campaign -resume -db " + db + " -n 40 -seed 2018 -only armv8/IS/SER -faultmodel all",
	} {
		if !strings.Contains(p.out.String(), want) {
			t.Errorf("interrupted campaign does not print %q:\n%s", want, p.out.String())
		}
	}
	stdout := mustCLI(t, append(args, "-resume")...)
	if want := fmt.Sprintf("resumed: %d campaigns already in %s, %d added\n", recorded, db, 7-recorded); !strings.HasSuffix(stdout, want) {
		t.Errorf("resume does not end with %q:\n%s", want, stdout)
	}
	if n := len(sortedLines(t, nil, db)); n != 7 {
		t.Errorf("%d campaigns in %s after the resume, want 7", n, db)
	}
}

// TestServeStopsOnSIGTERM: a one-shot coordinator SIGTERMed before any
// worker joins stops gracefully, exit 0, and prints the command that
// resumes its matrix.
func TestServeStopsOnSIGTERM(t *testing.T) {
	t.Parallel()
	addr, db := freeAddr(t), filepath.Join(t.TempDir(), "sigterm.jsonl")
	p := startProcess(t, "serve", "-addr", addr, "-n", "6", "-only", "armv8/IS/SER", "-db", db)
	awaitStatus(t, addr, p.done, p.out.String)
	p.signal(t, syscall.SIGTERM, "join workers with")
	p.mustExit(t)
	for _, want := range []string{
		"interrupted: 0 of 1 campaigns recorded in " + db,
		"resume with: serfi serve -resume -addr " + addr + " -db " + db + " -n 6 -seed 2018 -only armv8/IS/SER",
	} {
		if !strings.Contains(p.out.String(), want) {
			t.Errorf("SIGTERMed serve does not print %q:\n%s", want, p.out.String())
		}
	}
}

// clusterMatrix is the small mixed-domain matrix of the cluster pins.
var clusterMatrix = []string{"-n", "6", "-only", "armv8/IS/SER", "-faultmodel", "all"}

// TestClusterMatchesLocal: the same matrix through the local engine and
// through a coordinator with two workers over loopback TCP records the same
// v4 rows byte for byte — every fault tuple and outcome. /metrics scraped
// mid-campaign lints and the dashboard and status page are served. A
// coordinator resumed over the complete store is a no-op, and a one-shot
// serve whose one submission is cancelled before any worker joins exits 0.
func TestClusterMatchesLocal(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	local, cluster := filepath.Join(dir, "local.jsonl"), filepath.Join(dir, "cluster.jsonl")
	mustCLI(t, append([]string{"campaign", "-db", local}, clusterMatrix...)...)

	serve, addr := startServe(t, append([]string{"-db", cluster, "-shardsize", "2"}, clusterMatrix...)...)
	a := startCLI(t, "worker", "-join", addr, "-workers", "2", "-name", "ci-a")
	// Scrape once a shard is folded: the workers' families, histograms
	// included, ride on completions.
	for deadline := time.Now().Add(waitLimit); ; time.Sleep(10 * time.Millisecond) {
		st, err := dist.NewClient(addr).Status(context.Background())
		if err != nil || time.Now().After(deadline) {
			t.Fatalf("no shard folded (status error %v)", err)
		}
		if st.ShardsDone > 0 {
			break
		}
	}
	lint(t, "mid-campaign /metrics", get(t, "http://"+addr+"/metrics"))
	if dash := get(t, "http://"+addr+"/dash"); !strings.Contains(dash, "serfi campaign dashboard") {
		t.Errorf("/dash is not the dashboard:\n%.300s", dash)
	}
	if page := get(t, "http://"+addr+"/"); !strings.Contains(page, "<pre>") {
		t.Errorf("/ is not the status page:\n%.300s", page)
	}
	mustCLI(t, "worker", "-join", addr, "-workers", "2", "-name", "ci-b")
	a.mustExit(t)
	serve.mustExit(t)
	want := sortedLines(t, nil, local)
	if !strings.Contains(want[0], `"v":4`) {
		t.Fatalf("local rows are not v4: %.200s", want[0])
	}
	sameRows(t, "coordinator + 2 workers", want, sortedLines(t, nil, cluster))

	// No worker ever contacts the resumed coordinator, so it exits without
	// lingering, possibly before it would answer a status request.
	resumed := startCLI(t, append([]string{"serve", "-addr", freeAddr(t), "-resume", "-db", cluster, "-shardsize", "2"}, clusterMatrix...)...)
	resumed.mustExit(t)
	if !strings.Contains(resumed.stdout.String(), "matrix complete: 7 campaigns in "+cluster+" (0 served fresh, 7 resumed)") {
		t.Errorf("resumed coordinator:\n%s", resumed.stdout.String())
	}
	sameRows(t, "the resumed coordinator", want, sortedLines(t, nil, cluster))

	cancelled, addr := startServe(t, "-n", "6", "-only", "armv8/IS/SER", "-db", filepath.Join(dir, "cancelled.jsonl"))
	start := time.Now()
	mustCLI(t, "cancel", "-join", addr, "-id", "m000001")
	cancelled.mustExit(t)
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("the cancelled one-shot serve took %v to exit, want at most 10s", d)
	}
	if !strings.Contains(cancelled.stdout.String(), "cancelled: 0 of 1 campaigns recorded") {
		t.Errorf("cancelled one-shot serve:\n%s", cancelled.stdout.String())
	}
}

// TestClusterAffinity: two scenarios on two single-slot workers, each in a
// process of its own (each pushes its own registry), build each scenario's
// group once — two builds plus at most the tail's one steal — read off the
// last cluster /metrics scrape, which lints; the rows are the local run's.
func TestClusterAffinity(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	local, cluster := filepath.Join(dir, "local2.jsonl"), filepath.Join(dir, "cluster2.jsonl")
	matrix := []string{"-n", "8", "-only", "IS/SER", "-faultmodel", "all"}
	mustCLI(t, append([]string{"campaign", "-db", local}, matrix...)...)
	serve, addr := startServe(t, append([]string{"-db", cluster, "-shardsize", "2"}, matrix...)...)
	workers := []*process{
		startProcess(t, "worker", "-join", addr, "-workers", "1", "-name", "aff-a"),
		startProcess(t, "worker", "-join", addr, "-workers", "1", "-name", "aff-b"),
	}
	var last string
	for scraping := true; scraping; {
		select {
		case <-serve.done:
			scraping = false
		case <-time.After(200 * time.Millisecond):
			if m, err := scrape("http://" + addr + "/metrics"); err == nil {
				last = m
			}
		}
	}
	for _, w := range workers {
		w.mustExit(t)
	}
	serve.mustExit(t)
	lint(t, "last /metrics", last)
	builds, steals := 0.0, 0.0
	for _, line := range strings.Split(last, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, _ := strconv.ParseFloat(fields[1], 64)
		switch {
		case strings.HasPrefix(line, "serfi_dist_group_builds_total"):
			builds += v
		case strings.HasPrefix(line, `serfi_dist_grants_total{affinity="steal"}`):
			steals = v
		}
	}
	if builds < 2 || builds > 3 || steals > 1 {
		t.Errorf("group builds %v (want 2-3), steals %v (want <= 1)", builds, steals)
	}
	want := sortedLines(t, nil, local)
	if len(want) != 14 {
		t.Errorf("%d local rows, want 14", len(want))
	}
	sameRows(t, "affine cluster", want, sortedLines(t, nil, cluster))
}

// scrape is get for a server that may already be gone.
func scrape(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != 200 {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(b), err
}

// TestDeadFaultsMatchSlowPath: the product rows of the domains a dead-fault
// rule decides — page-touch (mem), set-stamp (the cache trio), dead-state
// (reg) — equal the rows of the -slowpath interpreter with snapshots off,
// where every fault runs from reset and no rule decides anything.
func TestDeadFaultsMatchSlowPath(t *testing.T) {
	dir := t.TempDir()
	local, simulated := filepath.Join(dir, "local.jsonl"), filepath.Join(dir, "simulated.jsonl")
	mustCLI(t, append([]string{"campaign", "-db", local}, clusterMatrix...)...)
	for _, model := range []string{"mem", "uncore", "reg"} {
		mustCLI(t, "campaign", "-n", "6", "-only", "armv8/IS/SER", "-faultmodel", model, "-slowpath", "-snapshots", "0", "-db", simulated, "-resume")
	}
	ruled := regexp.MustCompile(`"domain":"(mem|cachetag|reg|cachedirty|cacherepl)"`)
	want := sortedLines(t, ruled.MatchString, local)
	if len(want) != 5 {
		t.Fatalf("%d rows, want one per rule domain", len(want))
	}
	sameRows(t, "-slowpath -snapshots 0", want, sortedLines(t, nil, simulated))
}

// TestTraceExport: an instrumented campaign writes a Chrome trace with
// events, and its metrics exposition lints.
func TestTraceExport(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	trace, prom := filepath.Join(dir, "trace.json"), filepath.Join(dir, "trace-metrics.prom")
	stdout := mustCLI(t, "inject", "-s", "armv8/IS/SER-1", "-n", "8", "-chrome-trace", trace, "-metrics", prom)
	if !strings.Contains(stdout, "spans to "+trace) || !strings.Contains(stdout, "wrote metrics exposition to "+prom) {
		t.Errorf("inject does not report its trace and metrics files:\n%s", stdout)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(readFile(t, trace), &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("trace has no events (err %v)", err)
	}
	lint(t, prom, string(readFile(t, prom)))
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeDataRefusesOneShotFlags: a queue serves submitted matrices only,
// so matrix flags beside -data are refused, naming the command that takes
// them, and nothing is created. The run is already interrupted, so a serve
// that accepted them would stop at once instead of serving.
func TestServeDataRefusesOneShotFlags(t *testing.T) {
	t.Parallel()
	data := filepath.Join(t.TempDir(), "qrefused")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stderr strings.Builder
	code := run(ctx, []string{"serve", "-addr", freeAddr(t), "-data", data, "-n", "100", "-only", "armv8/IS"}, io.Discard, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "serfi submit") {
		t.Errorf("serve -data -n -only: exit %d, stderr %q; want 1 naming serfi submit", code, stderr.String())
	}
	if _, err := os.Stat(data); !os.IsNotExist(err) {
		t.Errorf("the refused serve created %s (stat: %v)", data, err)
	}
}

// TestQueue: a queue daemon takes two tenants' submissions and a third that
// is cancelled before any worker touches it. A worker process SIGTERMed
// while it holds a lease drains — finishes its leased shards, takes no new
// one, exits 0 — and a second worker finishes the queue. /metrics lints
// mid-run. A restarted daemon restores the journal: both matrices done, the
// cancelled one folded out, /v1/status the aggregate alone and a
// submission's rows asked for by ID. Each tenant's stored rows equal a
// local run's.
func TestQueue(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	data := filepath.Join(dir, "qdata")
	refAlice, refBob := filepath.Join(dir, "ref-alice.jsonl"), filepath.Join(dir, "ref-bob.jsonl")
	mustCLI(t, "campaign", "-n", "6", "-only", "armv8/IS/SER", "-db", refAlice)
	mustCLI(t, "campaign", "-n", "6", "-only", "armv7/IS/SER", "-db", refBob)

	serve, addr := startServe(t, "-data", data, "-shardsize", "2")
	mustCLI(t, "submit", "-join", addr, "-tenant", "alice", "-only", "armv8/IS/SER", "-n", "6")
	mustCLI(t, "submit", "-join", addr, "-tenant", "bob", "-only", "armv7/IS/SER", "-n", "6")
	mustCLI(t, "submit", "-join", addr, "-tenant", "carol", "-only", "armv8/MG", "-n", "120", "-id", "m000999")
	mustCLI(t, "cancel", "-join", addr, "-id", "m000999")
	if ls := mustCLI(t, "ls", "-join", addr); !regexp.MustCompile(`m000999 +carol +cancelled`).MatchString(ls) {
		t.Errorf("ls does not list m000999 cancelled:\n%s", ls)
	}

	drain := startProcess(t, "worker", "-join", addr, "-workers", "2", "-name", "ci-drain")
	// SIGTERM drains only once the worker has installed its handler, which
	// it does before it asks for its first lease.
	deadline := time.Now().Add(waitLimit)
	for leased := false; !leased; time.Sleep(10 * time.Millisecond) {
		st, err := dist.NewClient(addr).Status(context.Background())
		if err != nil || time.Now().After(deadline) {
			t.Fatalf("no lease for ci-drain (status error %v)\n%s", err, drain.out.String())
		}
		for _, w := range st.Workers {
			leased = leased || w.Name == "ci-drain" && (w.Live > 0 || w.Shards > 0)
		}
	}
	if err := drain.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	drain.mustExit(t)
	if !strings.Contains(drain.out.String(), "draining: finishing leased shards") {
		t.Errorf("SIGTERMed worker did not drain:\n%s", drain.out.String())
	}
	metrics := get(t, "http://"+addr+"/metrics")
	lint(t, "queue /metrics", metrics)
	for _, want := range []string{"serfi_dist_queue_depth", `tenant="alice"`} {
		if !strings.Contains(metrics, want) {
			t.Errorf("queue /metrics lacks %s", want)
		}
	}
	finish := startCLI(t, "worker", "-join", addr, "-workers", "2", "-name", "ci-finish")
	deadline = time.Now().Add(waitLimit)
	for strings.Count(mustCLI(t, "ls", "-join", addr), " done ") < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("the queue did not finish:\n%s", mustCLI(t, "ls", "-join", addr))
		}
		time.Sleep(50 * time.Millisecond)
	}
	finish.interrupt(t)
	serve.interrupt(t)

	serve, addr = startServe(t, "-data", data, "-shardsize", "2")
	ls := mustCLI(t, "ls", "-join", addr)
	if strings.Count(ls, " done ") != 2 || strings.Contains(ls, "m000999") {
		t.Errorf("restored queue, want alice and bob done and m000999 folded out:\n%s", ls)
	}
	status := get(t, "http://"+addr+dist.PathStatus)
	if strings.Contains(status, "campaign_list") || strings.Contains(status, `"matrices"`) {
		t.Errorf("/v1/status is more than the aggregate:\n%s", status)
	}
	var alice string
	for _, line := range strings.Split(ls, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[1] == "alice" {
			alice = f[0]
		}
	}
	mr, err := dist.NewClient(addr).Matrix(context.Background(), alice)
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Matrices) != 1 || len(mr.CampaignList) != mr.Matrices[0].Campaigns || len(mr.CampaignList) == 0 {
		t.Errorf("submission %s: %d matrices, %d campaign rows", alice, len(mr.Matrices), len(mr.CampaignList))
	}
	serve.interrupt(t)

	stored := func(line string) bool {
		return !strings.HasPrefix(line, `{"footer"`) && !strings.HasPrefix(line, `{"del"`)
	}
	for tenant, ref := range map[string]string{"alice": refAlice, "bob": refBob} {
		segs, err := filepath.Glob(filepath.Join(data, "store", "t-"+tenant, "seg-*.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, tenant+"'s stored rows", sortedLines(t, nil, ref), sortedLines(t, stored, segs...))
	}
}

// TestExperimentsJoinMatchesLocal: `serfi experiments -join` submits the
// artefact's matrix (Table 2, both ISAs) to a queue, watches it drain and
// formats the fetched rows: the artefact the same run prints locally.
func TestExperimentsJoinMatchesLocal(t *testing.T) {
	t.Parallel()
	want := mustCLI(t, "experiments", "-run", "table2", "-n", "2")
	serve, addr := startServe(t, "-data", filepath.Join(t.TempDir(), "edata"))
	w := startCLI(t, "worker", "-join", addr, "-workers", "2", "-name", "ci-exp")
	if got := mustCLI(t, "experiments", "-join", addr, "-run", "table2", "-n", "2"); got != want {
		t.Errorf("experiments -join prints\n%s\nthe local run prints\n%s", got, want)
	}
	w.interrupt(t)
	serve.interrupt(t)
}

// TestSmokeCampaignResume: a campaign over several scenarios, and one under
// a page-touch and a set-stamp domain, each resumed over its complete
// database, adds nothing.
func TestSmokeCampaignResume(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	for i, matrix := range [][]string{
		{"-n", "4", "-only", "armv8/IS"},
		{"-n", "4", "-only", "armv8/IS/SER", "-faultmodel", "mem"},
		{"-n", "4", "-only", "armv8/IS/SER", "-faultmodel", "cachetag"},
	} {
		db := filepath.Join(dir, fmt.Sprintf("smoke%d.jsonl", i))
		args := append([]string{"campaign", "-db", db}, matrix...)
		first := mustCLI(t, args...)
		n := len(sortedLines(t, nil, db))
		if !strings.HasSuffix(first, fmt.Sprintf("wrote %d campaign records to %s\n", n, db)) || n == 0 {
			t.Errorf("campaign %v:\n%s", matrix, first)
		}
		resumed := mustCLI(t, append(args, "-resume")...)
		if want := fmt.Sprintf("resumed: %d campaigns already in %s, 0 added\n", n, db); resumed != want {
			t.Errorf("resume over a complete database prints %q, want %q", resumed, want)
		}
	}
}

// TestSmokePropagation: the pinned register seed traces its unmasked runs,
// and the prop artefact renders a non-empty escape-class table.
func TestSmokePropagation(t *testing.T) {
	t.Parallel()
	if out := mustCLI(t, "inject", "-s", "armv8/IS/SER-1", "-n", "16", "-seed", "99", "-trace-prop"); !regexp.MustCompile(`prop: traced=[1-9]`).MatchString(out) {
		t.Errorf("inject -trace-prop traced nothing:\n%s", out)
	}
	if out := mustCLI(t, "experiments", "-run", "prop", "-trace-prop", "-n", "6", "-seed", "99"); !regexp.MustCompile(`(?m)^armv8 +reg +[1-9]`).MatchString(out) {
		t.Errorf("prop artefact has no armv8 reg row:\n%s", out)
	}
}

// TestSmokeReportFromRows: the report formatted from the rows a run
// recorded is the report the run printed, shape checks included, but for
// the wall times a database does not store; a -run artefact (Table 3, its
// own matrix) prints the same from its rows; no section prints NaN; and a report read from rows states
// no wall time it never measured.
func TestSmokeReportFromRows(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	r, liveMD, fromMD := filepath.Join(dir, "r.jsonl"), filepath.Join(dir, "live.md"), filepath.Join(dir, "from.md")
	mustCLI(t, "experiments", "-n", "2", "-only", "IS", "-db", r, "-out", liveMD)
	code, _, stderr := cli(t, "experiments", "-from", r, "-out", fromMD)
	if want := fmt.Sprintf("wrote %s (14 scenarios, 2 faults each)\n", fromMD); code != 0 || stderr != want {
		t.Errorf("experiments -from -out: exit %d, stderr %q, want %q", code, stderr, want)
	}
	// A database reproduces every section but the header's and Table 1's
	// wall times (Figure 1, between them, is static).
	cut := func(report string) string {
		i, j, k := strings.Index(report, "## Shape checks"), strings.Index(report, "## Figure 1"), strings.Index(report, "## Table 2")
		if i < 0 || j < i || k < j {
			t.Fatalf("report lacks its sections:\n%s", report)
		}
		return report[i:j] + report[k:]
	}
	live, from := string(readFile(t, liveMD)), string(readFile(t, fromMD))
	if cut(live) != cut(from) {
		t.Errorf("live report:\n%s\nfrom its rows:\n%s", cut(live), cut(from))
	}
	e := filepath.Join(dir, "e.jsonl")
	if live, from := mustCLI(t, "experiments", "-run", "table3", "-n", "2", "-db", e), mustCLI(t, "experiments", "-from", e, "-run", "table3"); live != from {
		t.Errorf("live -run table3:\n%s\nfrom its rows:\n%s", live, from)
	}
	if strings.Contains(live, "NaN") || strings.Contains(from, "NaN") {
		t.Error("a report prints NaN")
	}
}

// TestSmokeSensitivity: a plain campaign's database alone rebuilds the
// attribution report: a real per-function cell, the advisor, a complete
// standalone HTML heatmap and a serfi_sens_* exposition that lints.
func TestSmokeSensitivity(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	db, html, prom := filepath.Join(dir, "sens.jsonl"), filepath.Join(dir, "heat.html"), filepath.Join(dir, "sens.prom")
	mustCLI(t, "campaign", "-n", "8", "-only", "armv8/IS/SER", "-faultmodel", "all", "-seed", "99", "-db", db)
	report := mustCLI(t, "sens", "-db", db, "-html", html, "-metrics", prom)
	for _, want := range []string{"per-function vulnerability", "advisor:"} {
		if !strings.Contains(report, want) {
			t.Errorf("sens report lacks %q", want)
		}
	}
	if !regexp.MustCompile(`(?m)^  [a-z_][a-z0-9_]* +[1-9]`).MatchString(report) {
		t.Errorf("sens report has no per-function cell:\n%s", report)
	}
	page := string(readFile(t, html))
	for _, want := range []string{"<!doctype html>", "</html>", "serfi sensitivity heatmap"} {
		if !strings.Contains(page, want) {
			t.Errorf("heatmap lacks %q", want)
		}
	}
	metrics := string(readFile(t, prom))
	lint(t, prom, metrics)
	if !strings.Contains(metrics, "serfi_sens_rows_total") {
		t.Error("sens exposition lacks serfi_sens_rows_total")
	}
}

// TestGoldenStatsFastVsSlowPath: the gem5-style counter dump of a scenario's
// golden run is the same bytes on the block-cached fast path and on the
// -slowpath reference interpreter. Tier-1 runs one multicore scenario per
// ISA; SERFI_LOCKSTEP=full runs one per mode per ISA.
func TestGoldenStatsFastVsSlowPath(t *testing.T) {
	scenarios := []string{"armv8/IS/MPI-2", "armv7/IS/MPI-2"}
	if os.Getenv("SERFI_LOCKSTEP") == "full" {
		scenarios = []string{"armv8/IS/SER-1", "armv8/MG/OMP-2", "armv8/IS/MPI-2", "armv7/IS/SER-1", "armv7/MG/OMP-2", "armv7/IS/MPI-2"}
	}
	dir := t.TempDir()
	fast, slow := filepath.Join(dir, "fast.txt"), filepath.Join(dir, "slow.txt")
	for _, s := range scenarios {
		mustCLI(t, "golden", "-s", s, "-o", fast)
		mustCLI(t, "golden", "-s", s, "-slowpath", "-o", slow)
		if f, sl := readFile(t, fast), readFile(t, slow); len(f) == 0 || !bytes.Equal(f, sl) {
			t.Errorf("%s: stats dump diverged (%d bytes fast, %d -slowpath)", s, len(f), len(sl))
		}
	}
}
