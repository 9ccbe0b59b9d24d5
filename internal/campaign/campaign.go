// Package campaign drives fault-injection campaigns over NPB scenarios: the
// distributed/parallel phase-3 execution of the paper (§3.2.4), with faults
// batched into jobs that run on a host worker pool (standing in for the
// 5000-core HPC cluster), and phase-4 report assembly into a results
// database.
//
// The public orchestration API has three pillars. The Engine (engine.go)
// is a constructed, reusable orchestrator: New(opts...) fixes the tuning,
// RunMatrix(ctx, jobs) interleaves golden runs (which capture the
// checkpoints) and injection jobs across scenarios on one shared worker pool, cancels
// promptly at job granularity and returns partial results plus ctx.Err().
// Progress is a typed event stream (events.go) that a Collector folds into
// live progress lines and summaries. Completed campaigns land in a
// Store (store.go) — a queryable results database of "v":4 JSONL rows,
// durable on disk, whose pre-loaded keys double as the resume set: one
// FileStore file per matrix, or a SegmentedStore directory per service
// (segstore.go). Under all
// three sits group.go: the scenario Group, its shard executor and the Fold
// that turns shards into a Result — shared verbatim with the distributed
// fabric (internal/dist).
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/jsonl"
	"serfi/internal/npb"
	"serfi/internal/profile"
	"serfi/internal/prop"
)

// Result is the scenario-level record: outcome distribution + golden
// profile features, i.e. one row of the paper's cross-layer database.
type Result struct {
	Scenario npb.Scenario
	Domain   fault.Model // fault model the runs were drawn from
	Faults   int
	Seed     int64 // fault-list seed the runs were drawn from
	Counts   fi.Counts
	Golden   GoldenSummary
	Features profile.Features
	APICalls uint64 // calls into the parallelization runtime
	Runs     []fi.Result
	// Traces are per-run propagation records when the campaign ran with
	// propagation tracing: Traces[i] belongs to Runs[i], nil for masked or
	// untraced runs. Nil entirely when tracing was off. Reloaded rows
	// carry Runs exactly and Traces as minimal escape/latency records
	// (Escape + ArchInstr, every other latency axis -1).
	Traces []*prop.Trace
	// Prop is the campaign-level fold of Traces (escape-class histogram and
	// latency samples); nil when no run was traced.
	Prop *prop.Summary
	// Ignored: every campaign records its runs; kept for bench/ (ROADMAP item 9).
	RecordRuns bool
	// Host wall-clock costs (the paper's Table 1 simulation-time axis).
	// Campaigns overlap on the shared worker pool, so GoldenWallSec and
	// CampaignWallSec measure start-to-finish spans, not exclusive
	// compute: summing CampaignWallSec across rows overcounts, sometimes
	// wildly — use ExclusiveCompute for anything additive. Domain
	// campaigns of one scenario share the fault-free phases — their
	// GoldenWallSec is the same measurement and their CampaignWallSec
	// spans open from the shared scenario start. JobWallSec sums the
	// per-job spans emitted as JobDone events: each injection job runs on
	// one worker, so these spans nest within worker occupancy and stay
	// additive across campaigns.
	GoldenWallSec   float64
	CampaignWallSec float64
	JobWallSec      float64
	// Snapshot-engine observability: instructions actually simulated by the
	// injection runs versus their from-reset cost, and how many runs were
	// scored by convergence pruning or decided as dead faults (zero-valued
	// when snapshots are off).
	SimulatedInstr uint64
	FromResetInstr uint64
	PrunedRuns     int
}

// Key is the database identity of one (scenario, fault domain) campaign.
// Register-domain keys are the bare scenario ID and the others append
// "#domain": keys are persisted in segment footers, and they order every
// listing and every fetched database, so their spelling is part of the
// format.
func Key(sc npb.Scenario, d fault.Model) string {
	if d == fault.Reg {
		return sc.ID()
	}
	return sc.ID() + "#" + d.String()
}

// ParseKey is the inverse of Key.
func ParseKey(key string) (npb.Scenario, fault.Model, error) {
	id, domain := key, fault.Reg
	if i := strings.IndexByte(key, '#'); i >= 0 {
		var err error
		if domain, err = fault.ParseModel(key[i+1:]); err != nil {
			return npb.Scenario{}, 0, err
		}
		id = key[:i]
	}
	sc, err := npb.ParseID(id)
	return sc, domain, err
}

// Key returns the result's database identity.
func (r *Result) Key() string { return Key(r.Scenario, r.Domain) }

// ExclusiveCompute returns the host compute attributable to this campaign
// alone: the golden-phase span plus its injection jobs' spans. Fold.Add takes
// each fault-index range once, so those spans never overlap and summing
// ExclusiveCompute across campaigns approximates total pool busy time. Unlike
// CampaignWallSec — an open-to-close span over the shared worker pool — every
// counted span occupies one worker. Domain campaigns of one scenario share a
// single golden phase, so a cross-domain sum counts that phase once per
// domain. Results reloaded from a database store no wall-clock columns and
// report zero.
func (r *Result) ExclusiveCompute() float64 { return r.GoldenWallSec + r.JobWallSec }

// SnapshotSavings returns the snapshot engine's amortization factor
// (from-reset instructions per simulated instruction) and the prune rate;
// ok is false when the campaign ran without snapshot acceleration (or was
// reloaded from a database, which stores no engine telemetry). A campaign
// decided entirely without simulation (SimulatedInstr == 0: every fault
// dead) is accelerated; its factor is per one instruction.
func (r *Result) SnapshotSavings() (save, pruneRate float64, ok bool) {
	if r.FromResetInstr == 0 {
		return 0, 0, false
	}
	return float64(r.FromResetInstr) / float64(max(r.SimulatedInstr, 1)),
		float64(r.PrunedRuns) / float64(max(r.Faults, 1)), true
}

// GoldenSummary carries the reference-run headline numbers.
type GoldenSummary struct {
	AppStart uint64
	AppEnd   uint64
	Retired  uint64
	Cycles   uint64
}

// recordVersion is the one database row version: "v":4, the per-fault
// rows every campaign writes. Rows of older builds (unversioned, v2, v3)
// are refused with the advice to rerun their campaign.
const recordVersion = 4

// checkVersion refuses a row of any version but recordVersion.
func checkVersion(v int) error {
	if v == recordVersion {
		return nil
	}
	what := fmt.Sprintf("row version %d", v)
	if v == 0 {
		what = "unversioned row"
	}
	return fmt.Errorf("%s: this build reads only v%d rows (rerun the campaign into a fresh database)", what, recordVersion)
}

// record is the JSON row stored in the database file.
type record struct {
	Version  int                `json:"v"`
	Scenario string             `json:"scenario"`
	Domain   string             `json:"domain,omitempty"`
	Faults   int                `json:"faults"`
	Seed     int64              `json:"seed"`
	Counts   map[string]int     `json:"counts"`
	Golden   GoldenSummary      `json:"golden"`
	Features map[string]float64 `json:"features"`
	APICalls uint64             `json:"api_calls"`
	Prop     *prop.Summary      `json:"prop,omitempty"` // traced campaigns only
	Runs     []runRow           `json:"runs,omitempty"`
}

// runRow is one compact per-fault row of a record: the fault.Point
// tuple, the outcome code, and the escape class + first-divergence latency
// when the run was traced. The point's Domain is omitted — it always
// equals the record's domain column (fault.Domain.Sample stamps it) — and
// the keys are single letters because a campaign writes one row per fault.
type runRow struct {
	I  uint64 `json:"i"`            // fault.Point.Index (retired instrs past AppStart)
	C  int    `json:"c,omitempty"`  // Core
	R  int    `json:"r,omitempty"`  // Reg (register index; cache way)
	A  uint32 `json:"a,omitempty"`  // Addr (byte address; cache set)
	B  int    `json:"b,omitempty"`  // Bit
	W  int    `json:"w,omitempty"`  // Width (burst length)
	L  int    `json:"l,omitempty"`  // Level (cache level)
	O  int    `json:"o"`            // fi.Outcome code
	E  string `json:"e,omitempty"`  // escape class name, traced runs only
	EI *int64 `json:"ei,omitempty"` // instrs to first arch divergence, traced runs only (-1 = never)
}

// recordOf flattens a scenario result into its database row.
func recordOf(r *Result) record {
	rec := record{
		Version:  recordVersion,
		Prop:     r.Prop,
		Scenario: r.Scenario.ID(),
		Domain:   r.Domain.String(),
		Faults:   r.Faults,
		Seed:     r.Seed,
		Counts: map[string]int{
			"vanished": r.Counts[fi.Vanished],
			"ona":      r.Counts[fi.ONA],
			"omm":      r.Counts[fi.OMM],
			"ut":       r.Counts[fi.UT],
			"hang":     r.Counts[fi.Hang],
		},
		Golden:   r.Golden,
		Features: r.Features.Map(),
		APICalls: r.APICalls,
	}
	rec.Runs = make([]runRow, len(r.Runs))
	for i, run := range r.Runs {
		p := run.Fault
		row := runRow{I: p.Index, C: p.Core, R: p.Reg, A: p.Addr,
			B: p.Bit, W: p.Width, L: p.Level, O: int(run.Outcome)}
		if i < len(r.Traces) && r.Traces[i] != nil {
			row.E = r.Traces[i].Escape.String()
			ei := r.Traces[i].ArchInstr
			row.EI = &ei
		}
		rec.Runs[i] = row
	}
	return rec
}

// restoreRuns inflates a record's compact rows back into fi.Result
// records, plus minimal prop.Trace records (escape class and
// arch-divergence latency; every unstored latency axis -1) for the rows
// that were traced. Only the persisted columns are recovered — host-side
// run telemetry (retired/cycles/exit) reads zero on reloaded runs. The
// point's Domain is the campaign's domain column (the register domain is
// the zero value, matching the reg domain's Sample).
func restoreRuns(res *Result, rows []runRow, domain fault.Model) error {
	res.Runs = make([]fi.Result, len(rows))
	for i, row := range rows {
		if row.O < 0 || row.O >= int(fi.NumOutcomes) {
			return fmt.Errorf("run %d: unknown outcome code %d", i, row.O)
		}
		res.Runs[i] = fi.Result{
			Fault: fault.Point{Domain: domain, Index: row.I, Core: row.C,
				Reg: row.R, Addr: row.A, Bit: row.B, Width: row.W, Level: row.L},
			Outcome: fi.Outcome(row.O),
		}
		if row.E == "" {
			continue
		}
		class, err := prop.ParseClass(row.E)
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		tr := &prop.Trace{Escape: class, ArchInstr: -1, ArchCyc: -1,
			TimingInstr: -1, MemInstr: -1, XCoreInstr: -1, KernelInstr: -1}
		if row.EI != nil {
			tr.ArchInstr = *row.EI
		}
		if res.Traces == nil {
			res.Traces = make([]*prop.Trace, len(rows))
		}
		res.Traces[i] = tr
	}
	return nil
}

// recordLine is one scenario's JSONL row without its newline — what every
// backend appends to its log.
func recordLine(r *Result) ([]byte, error) {
	rec := recordOf(r)
	return json.Marshal(&rec)
}

// WriteDB streams scenario records as JSON lines (the single database of
// workflow phase 4).
func WriteDB(w io.Writer, results []*Result) error {
	enc := json.NewEncoder(w) // recordLine's bytes and a newline, one Write per row
	for _, r := range results {
		rec := recordOf(r)
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return nil
}

// ReadDB parses a JSONL database back into per-campaign results, keyed by
// Key (scenario ID, domain-qualified for non-register domains). A row of
// any version but v4 and a duplicate key are refused with the line number
// rather than skipped or silently last-write-wins. Counts, golden summary,
// features and the propagation fold round-trip, Runs reloads exactly —
// fault tuple and outcome per run — plus minimal Traces (escape class and
// arch-divergence latency) for runs that were traced, so re-writing a
// reloaded result reproduces its row byte for byte.
func ReadDB(r io.Reader) (map[string]*Result, error) {
	out, _, _, err := readDB(r)
	return out, err
}

// readDB is ReadDB, the number of bytes it read — where the FileStore's log
// starts — and whether the last of them is not a newline.
func readDB(r io.Reader) (_ map[string]*Result, n int64, unterminated bool, _ error) {
	out := make(map[string]*Result)
	line := 0
	add := func(_ int64, b []byte) error {
		line++
		if b = bytes.TrimRight(b, "\r"); len(b) == 0 {
			return nil
		}
		res, err := decodeRecordLine(b)
		if err != nil {
			return fmt.Errorf("campaign db line %d: %w", line, err)
		}
		key := res.Key()
		if _, dup := out[key]; dup {
			return fmt.Errorf("campaign db line %d: duplicate record for %q", line, key)
		}
		out[key] = res
		return nil
	}
	valid, tail, err := jsonl.Scan(r, add)
	if err == nil {
		// The database is the user's file, so a torn last line is refused, not
		// dropped: what follows the last newline must be a whole row.
		err = add(valid, tail)
	}
	return out, valid + int64(len(tail)), len(tail) > 0, err
}

// decodeRecordLine parses one JSONL database row into a Result — the
// single-row slice of ReadDB, shared with the segmented store's lazy row
// loads (which read individual rows by segment offset instead of scanning
// the whole database).
func decodeRecordLine(b []byte) (*Result, error) {
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, err
	}
	if err := checkVersion(rec.Version); err != nil {
		return nil, err
	}
	scen, err := npb.ParseID(rec.Scenario)
	if err != nil {
		return nil, err
	}
	domain, err := fault.ParseModel(rec.Domain)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Scenario: scen,
		Domain:   domain,
		Faults:   rec.Faults,
		Seed:     rec.Seed,
		Golden:   rec.Golden,
		Features: profile.FeaturesFromMap(rec.Features),
		APICalls: rec.APICalls,
		Prop:     rec.Prop,
	}
	if err := restoreRuns(res, rec.Runs, domain); err != nil {
		return nil, err
	}
	res.Counts[fi.Vanished] = rec.Counts["vanished"]
	res.Counts[fi.ONA] = rec.Counts["ona"]
	res.Counts[fi.OMM] = rec.Counts["omm"]
	res.Counts[fi.UT] = rec.Counts["ut"]
	res.Counts[fi.Hang] = rec.Counts["hang"]
	return res, nil
}
