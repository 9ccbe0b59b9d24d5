package dist

// Observability pins of the fabric: the cluster-wide /metrics exposition
// (coordinator families merged with worker-pushed snapshots), the status
// page's HTML escaping, the dashboard page and its SSE feed, and the status
// reply's outcome/campaign breakdown.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"serfi/internal/obs"
)

// newSSERequest builds the GET the dashboard's EventSource would issue.
func newSSERequest(ctx context.Context, url string) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	return req, nil
}

// TestClusterMetrics runs a loopback cluster to completion and scrapes
// /metrics: the exposition must lint, carry the coordinator's dist families
// and the worker-pushed simulator families, with the right Content-Type.
func TestClusterMetrics(t *testing.T) {
	coord, err := NewCoordinator(compatJobs()[:1], compatFaults, ShardSize(2))
	if err != nil {
		t.Fatal(err)
	}
	runCluster(t, coord, 1)
	cl := NewLoopbackClient(coord.Handler())
	resp, err := cl.hc.Get(cl.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families, err := obs.Lint(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics does not lint: %v\n%s", err, body)
	}
	if families == 0 {
		t.Fatal("empty /metrics exposition")
	}
	text := string(body)
	for _, fam := range []string{
		// Coordinator-side families, including the engine-level outcome and
		// campaign counters fed by the coordinator's fold path.
		"# TYPE serfi_dist_shards_total counter",
		"# TYPE serfi_dist_lease_requests_total counter",
		"# TYPE serfi_dist_shard_seconds histogram",
		"# TYPE serfi_dist_workers gauge",
		"# TYPE serfi_campaign_injections_total counter",
		"# TYPE serfi_campaign_campaigns_total counter",
		// Worker-pushed families (the loopback worker runs real injections
		// in-process and pushes its obs.Default snapshot with each shard).
		"# TYPE serfi_fi_injections_total counter",
		"# TYPE serfi_mach_retired_instructions_total counter",
		"# TYPE serfi_dist_wire_requests_total counter",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("/metrics missing %q", fam)
		}
	}
	if !strings.Contains(text, `serfi_dist_shards_total{result="accepted",tenant="default"} 3`) {
		t.Errorf("/metrics: want 3 accepted shards, got:\n%s", grepLines(text, "serfi_dist_shards_total"))
	}
}

// grepLines returns the lines of text containing substr (test diagnostics).
func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestStatusPageEscapesWorkerNames: worker names are wire-controlled
// strings; the HTML status page must escape them.
func TestStatusPageEscapesWorkerNames(t *testing.T) {
	coord, err := NewCoordinator(compatJobs()[:1], compatFaults, ShardSize(3))
	if err != nil {
		t.Fatal(err)
	}
	runCluster(t, coord, 1, Name(`ev<il>&"name`))
	cl := NewLoopbackClient(coord.Handler())
	resp, err := cl.hc.Get(cl.base + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Errorf("Content-Type = %q, want text/html", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	if strings.Contains(page, "ev<il>") {
		t.Error("status page leaks unescaped worker name")
	}
	if !strings.Contains(page, "ev&lt;il&gt;&amp;&#34;name") {
		t.Errorf("status page missing escaped worker name:\n%s", page)
	}
	if !strings.Contains(page, "matrix complete") {
		t.Error("status page missing completion banner")
	}
}

// TestStatusOutcomesAndCampaignList: the status reply carries the
// matrix-wide outcome taxonomy tally, and the submission's matrices reply its
// per-campaign progress rows.
func TestStatusOutcomesAndCampaignList(t *testing.T) {
	coord, err := NewCoordinator(compatJobs()[:2], compatFaults, ShardSize(2))
	if err != nil {
		t.Fatal(err)
	}
	runCluster(t, coord, 2)
	st := coord.Status()
	total := 0
	for _, n := range st.Outcomes {
		total += n
	}
	if want := 2 * compatFaults; total != want {
		t.Errorf("outcome tally sums to %d, want %d: %v", total, want, st.Outcomes)
	}
	mr, err := coord.Matrix("m000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.CampaignList) != 2 {
		t.Fatalf("CampaignList has %d rows, want 2: %+v", len(mr.CampaignList), mr.CampaignList)
	}
	for _, row := range mr.CampaignList {
		if !row.Done || row.Failed || row.Skipped || row.Injected != compatFaults || row.Faults != compatFaults {
			t.Errorf("campaign row = %+v", row)
		}
	}
	if !sortedByKey(mr.CampaignList) {
		t.Errorf("CampaignList not sorted by key: %+v", mr.CampaignList)
	}
}

func sortedByKey(rows []CampaignStatus) bool {
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Key > rows[i].Key {
			return false
		}
	}
	return true
}

// TestDashboard serves the dashboard over a real HTTP server (the SSE
// handler needs http.Flusher, which the loopback transport lacks) and
// checks the page and the live feed's terminal event.
func TestDashboard(t *testing.T) {
	coord, err := NewCoordinator(compatJobs()[:1], compatFaults, ShardSize(2))
	if err != nil {
		t.Fatal(err)
	}
	runCluster(t, coord, 1)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Errorf("/dash Content-Type = %q", ct)
	}
	for _, want := range []string{"serfi campaign dashboard", "/dash/events", "/v1/status", "textContent"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/dash missing %q", want)
		}
	}

	// The matrix already finished, so the SSE stream must deliver the
	// terminal matrix event and close.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := newSSERequest(ctx, srv.URL+"/dash/events")
	if err != nil {
		t.Fatal(err)
	}
	sresp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("/dash/events Content-Type = %q", ct)
	}
	feed, err := io.ReadAll(sresp.Body) // handler returns after the matrix event
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(feed), `data: {"type":"matrix"}`) {
		t.Errorf("SSE feed missing terminal matrix event:\n%s", feed)
	}
}
