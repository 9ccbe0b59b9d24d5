package dist

// Failure-model tests: a worker killed mid-shard loses only its leased
// shards — the coordinator re-issues them after the TTL, no duplicate rows
// reach the store, and the final campaign is bit-identical to an
// uninterrupted run. Time is driven explicitly through the coordinator's
// injected clock, so nothing here sleeps or flakes.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/npb"
)

// fakeClock is a hand-advanced coordinator clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestLeaseExpiryReissuesKilledWorkersShard(t *testing.T) {
	jobs := []campaign.ScenarioJob{
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Domain: fault.Reg, Seed: 21},
	}
	const faults = 4

	// Reference: the uninterrupted single-process campaign.
	ref, err := campaign.New(campaign.Faults(faults)).RunMatrix(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	path := t.TempDir() + "/dist.jsonl"
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	events := make(chan campaign.Event, 64)
	col := campaign.NewCollector(nil, len(jobs))
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		col.Consume(events)
	}()
	coord, err := NewCoordinator(jobs, faults,
		ShardSize(2), // two shards
		LeaseTTL(time.Minute),
		WithStore(st),
		WithEvents(events),
		withNow(clock.now),
	)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewLoopbackClient(coord.Handler())
	ctx := context.Background()

	// The doomed worker leases the first shard and is killed mid-shard: the
	// lease is held, no completion ever arrives. It reports one progress
	// beat first — work the healthy worker will redo after the re-issue,
	// which the progress accounting must not count twice.
	doomed, err := cl.Lease(ctx, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	if doomed.Lease == nil {
		t.Fatalf("doomed worker got no lease: %+v", doomed)
	}
	if err := cl.Event(ctx, EventRequest{
		Worker: "doomed", LeaseID: doomed.Lease.ID, Key: doomed.Lease.Key,
		Lo: doomed.Lease.Lo, Hi: doomed.Lease.Lo + 1, WallSec: 0.25,
	}); err != nil {
		t.Fatal(err)
	}

	// Before the TTL passes, the shard must NOT be re-issued: a second
	// worker sees only the other shard, then a retry hint.
	if r, err := cl.Lease(ctx, "probe"); err != nil || r.Lease == nil || r.Lease.ID == doomed.Lease.ID {
		t.Fatalf("probe lease = %+v, %v (want the second shard)", r, err)
	}
	if r, err := cl.Lease(ctx, "probe"); err != nil || r.Lease != nil || r.Done {
		t.Fatalf("probe lease = %+v, %v (want a retry hint while both shards are leased)", r, err)
	}
	// The probe abandons its shard too; both now expire together.
	clock.advance(time.Minute + time.Second)

	// A beat arriving after the deadline must be dropped outright (the
	// lease is overdue even though no acquire has reaped it yet), not
	// counted now and retracted later.
	if err := cl.Event(ctx, EventRequest{
		Worker: "doomed", LeaseID: doomed.Lease.ID, Key: doomed.Lease.Key,
		Lo: doomed.Lease.Lo + 1, Hi: doomed.Lease.Hi, WallSec: 0.25,
	}); err != nil {
		t.Fatal(err)
	}
	if s := coord.Status(); s.ShardsLeased != 0 || s.ShardsPending != s.Shards {
		t.Errorf("status after expiry = leased %d pending %d (want all %d pending)",
			s.ShardsLeased, s.ShardsPending, s.Shards)
	}

	// A healthy worker drains the re-issued shards to completion. Between
	// its two completions the doomed worker's completion arrives late —
	// after its lease expired, while the campaign is still folding, claiming
	// a long wall clock. It must be reported stale and change nothing.
	w := NewWorker(cl, Name("healthy"))
	accepted := 0.0
	for i := 0; i < 2; i++ {
		r, err := cl.Lease(ctx, w.name)
		if err != nil || r.Lease == nil {
			t.Fatalf("healthy lease %d = %+v, %v", i, r, err)
		}
		req, err := w.exec(ctx, r.Lease)
		if err != nil || req.Err != "" {
			t.Fatalf("exec %+v: %v %s", r.Lease, err, req.Err)
		}
		reply, err := cl.Complete(ctx, req)
		if err != nil || !reply.Accepted {
			t.Fatalf("healthy completion %d = %+v, %v", i, reply, err)
		}
		accepted += req.WallSec
		if i == 0 {
			stale, err := cl.Complete(ctx, CompleteRequest{
				Worker:  "doomed",
				LeaseID: doomed.Lease.ID,
				Key:     doomed.Lease.Key,
				Lo:      doomed.Lease.Lo,
				Hi:      doomed.Lease.Hi,
				WallSec: 1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !stale.Stale || stale.Accepted {
				t.Errorf("late completion reply = %+v, want stale", stale)
			}
		}
	}
	results, err := coord.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	status := coord.Status()
	if status.Reissued < 2 {
		t.Errorf("reissued = %d, want >= 2 (both expired leases)", status.Reissued)
	}
	// Status totals after the re-issue: every shard retired exactly once,
	// nothing in flight, and every fault classified exactly once — the
	// re-executed shard is not counted twice.
	if status.Shards != 2 || status.ShardsDone != 2 || status.ShardsLeased != 0 || status.ShardsPending != 0 {
		t.Errorf("shard totals = %d done / %d leased / %d pending of %d, want 2/0/0 of 2",
			status.ShardsDone, status.ShardsLeased, status.ShardsPending, status.Shards)
	}
	if status.Injected != faults || status.Injections != faults {
		t.Errorf("status injections = %d/%d classified, want %d/%d", status.Injected, status.Injections, faults, faults)
	}

	// No duplicate rows: exactly one JSONL record, and the campaign matches
	// the uninterrupted reference bit for bit.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	lines := sortedRecords(t, path)
	if len(lines) != 1 {
		t.Fatalf("store holds %d JSONL rows, want 1:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if results[0] == nil || results[0].Counts != ref[0].Counts {
		t.Errorf("interrupted-then-reissued counts %v != reference %v", results[0].Counts, ref[0].Counts)
	}
	if results[0].Counts.Total() != faults {
		t.Errorf("classified %d of %d faults", results[0].Counts.Total(), faults)
	}

	// The Collector's JobDone-derived run count reconciles with the status
	// page: the doomed worker's beat covered faults the healthy worker
	// re-reported, and both surfaces count each fault once.
	<-consumed
	if got := col.Injected(); got != faults {
		t.Errorf("collector injected = %d, want %d (re-issued beats double-counted)", got, faults)
	}
	// Each fault range folds once, so ExclusiveCompute is the golden phase
	// plus the accepted completions' wall clock, and the stale one added
	// nothing.
	r := results[0]
	if r.JobWallSec != accepted {
		t.Errorf("JobWallSec = %v, want the accepted completions' %v", r.JobWallSec, accepted)
	}
	if got, want := r.ExclusiveCompute(), r.GoldenWallSec+r.JobWallSec; got != want {
		t.Errorf("ExclusiveCompute = %v, want %v", got, want)
	}
}

// TestShardErrorFailsCampaign: a worker that cannot execute a shard reports
// the error, the campaign fails like a local engine failure, remaining
// shards drain, and the matrix still terminates.
func TestShardErrorFailsCampaign(t *testing.T) {
	jobs := []campaign.ScenarioJob{
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Domain: fault.Reg, Seed: 31},
	}
	coord, err := NewCoordinator(jobs, 4, ShardSize(2))
	if err != nil {
		t.Fatal(err)
	}
	cl := NewLoopbackClient(coord.Handler())
	ctx := context.Background()
	r, err := cl.Lease(ctx, "w")
	if err != nil || r.Lease == nil {
		t.Fatalf("lease: %+v, %v", r, err)
	}
	if _, err := cl.Complete(ctx, CompleteRequest{
		Worker: "w", LeaseID: r.Lease.ID, Key: r.Lease.Key,
		Lo: r.Lease.Lo, Hi: r.Lease.Hi, Err: "scenario build exploded",
	}); err != nil {
		t.Fatal(err)
	}
	results, err := coord.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), "scenario build exploded") {
		t.Errorf("matrix error = %v, want the shard failure", err)
	}
	if results[0] != nil {
		t.Error("failed campaign produced a result")
	}
	if s := coord.Status(); !s.Done || s.Failed != 1 || s.ShardsDone != s.Shards {
		t.Errorf("status after failure = %+v", s)
	}
}

// TestLeaseTableShardMath pins the sharding arithmetic, including the
// zero-fault edge (one empty shard so metadata still flows).
func TestLeaseTableShardMath(t *testing.T) {
	mk := func(faults, shardSize int) *leaseTable {
		c := &campState{Fold: campaign.Fold{Faults: faults}}
		return newLeaseTable([]*campState{c}, shardSize, time.Minute, time.Now)
	}
	for _, tc := range []struct {
		faults, shardSize, wantShards int
	}{
		{10, 4, 3}, {8, 4, 2}, {1, 4, 1}, {0, 4, 1}, {4, 1, 4},
	} {
		tab := mk(tc.faults, tc.shardSize)
		if len(tab.shards) != tc.wantShards {
			t.Errorf("faults=%d shard=%d: %d shards, want %d", tc.faults, tc.shardSize, len(tab.shards), tc.wantShards)
			continue
		}
		covered := 0
		for _, sh := range tab.shards {
			covered += sh.hi - sh.lo
		}
		if covered != tc.faults {
			t.Errorf("faults=%d shard=%d: shards cover %d", tc.faults, tc.shardSize, covered)
		}
	}
}

// TestLeaseGrantSequences pins fair-share as tenant rotation. Every want
// string was recorded from the deficit-round-robin scheduler this rotation
// replaced (quantum = shard size 4, one-quantum credit cap, idle tenants
// forfeit), so the two are equal on {1, 2, 3 tenants} × {full shards, a
// sub-quantum tail, the zero-fault metadata shard}, on a mix of the three,
// and when a drained tenant returns mid-rotation. Tenants enter the table
// as carol, alice, bob — rotation is by name, not by submit order — with
// two campaigns each, so submit order within one tenant is pinned too.
func TestLeaseGrantSequences(t *testing.T) {
	const shardSize = 4
	subs := map[string]*submission{}
	camp := func(key string, faults int) *campState {
		tn := map[byte]string{'a': "alice", 'b': "bob", 'c': "carol"}[key[0]]
		if subs[tn] == nil {
			subs[tn] = &submission{tenant: tn}
		}
		return &campState{sub: subs[tn], key: key, Fold: campaign.Fold{Faults: faults}}
	}
	// uniform is rounds 0 and 1 of one campaign per tenant, all one shape.
	uniform := func(tenants string, faults int) []*campState {
		var out []*campState
		for _, round := range "01" {
			for _, tn := range tenants {
				out = append(out, camp(string(tn)+string(round), faults))
			}
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		camps []*campState
		late  []*campState // submitted after the fourth grant
		want  string
	}{
		{name: "1 tenant full", camps: uniform("c", 8),
			want: "c0[0,4) c0[4,8) c1[0,4) c1[4,8)"},
		{name: "1 tenant tail", camps: uniform("c", 6),
			want: "c0[0,4) c0[4,6) c1[0,4) c1[4,6)"},
		{name: "1 tenant zero", camps: uniform("c", 0),
			want: "c0[0,0) c1[0,0)"},
		{name: "2 tenants full", camps: uniform("ca", 8),
			want: "a0[0,4) c0[0,4) a0[4,8) c0[4,8) a1[0,4) c1[0,4) a1[4,8) c1[4,8)"},
		{name: "2 tenants tail", camps: uniform("ca", 6),
			want: "a0[0,4) c0[0,4) a0[4,6) c0[4,6) a1[0,4) c1[0,4) a1[4,6) c1[4,6)"},
		{name: "2 tenants zero", camps: uniform("ca", 0),
			want: "a0[0,0) c0[0,0) a1[0,0) c1[0,0)"},
		{name: "3 tenants full", camps: uniform("cab", 8),
			want: "a0[0,4) b0[0,4) c0[0,4) a0[4,8) b0[4,8) c0[4,8) a1[0,4) b1[0,4) c1[0,4) a1[4,8) b1[4,8) c1[4,8)"},
		{name: "3 tenants tail", camps: uniform("cab", 6),
			want: "a0[0,4) b0[0,4) c0[0,4) a0[4,6) b0[4,6) c0[4,6) a1[0,4) b1[0,4) c1[0,4) a1[4,6) b1[4,6) c1[4,6)"},
		{name: "3 tenants zero", camps: uniform("cab", 0),
			want: "a0[0,0) b0[0,0) c0[0,0) a1[0,0) b1[0,0) c1[0,0)"},
		{name: "mixed shapes", camps: []*campState{camp("c0", 8), camp("a0", 6), camp("b0", 0), camp("a1", 1)},
			want: "a0[0,4) b0[0,0) c0[0,4) a0[4,6) c0[4,8) a1[0,1)"},
		{name: "drained tenant returns",
			camps: []*campState{camp("c0", 12), camp("b0", 2), camp("a0", 6)},
			late:  []*campState{camp("b1", 6), camp("a1", 0)},
			want:  "a0[0,4) b0[0,2) c0[0,4) a0[4,6) b1[0,4) c0[4,8) a1[0,0) b1[4,6) c0[8,12)"},
	} {
		tab := newLeaseTable(tc.camps, shardSize, time.Minute, time.Now)
		var got []string
		for {
			if len(got) == 4 && tc.late != nil {
				tab.add(tc.late, shardSize)
			}
			sh, _ := tab.acquire("w")
			if sh == nil {
				break
			}
			got = append(got, fmt.Sprintf("%s[%d,%d)", sh.camp.key, sh.lo, sh.hi))
		}
		if g := strings.Join(got, " "); g != tc.want {
			t.Errorf("%s: grants\n got %s\nwant %s", tc.name, g, tc.want)
		}
	}
}
