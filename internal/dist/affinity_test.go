package dist

// Scenario-affine leasing: within the tenant whose turn it is, a worker is
// kept on the group it has built, an idle worker opens a group nobody
// holds, and only the tail is stolen — pinned as recorded grant sequences
// at table level and as a count of group builds on a live loopback cluster.
// The two wire checks that ride along (no progress beat moves progress; two
// workers that disagree about a golden run fail the campaign) are pinned
// here too.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/npb"
)

// affinityScenarios are the groups of the table-level cases, by the letter
// a campaign key names them with.
var affinityScenarios = map[byte]npb.Scenario{
	'A': {App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1},
	'B': {App: "EP", Mode: npb.Serial, ISA: "armv8", Cores: 1},
	'C': {App: "IS", Mode: npb.Serial, ISA: "armv7", Cores: 1},
	'D': {App: "EP", Mode: npb.Serial, ISA: "armv7", Cores: 1},
}

// affinityCamps builds one campaign per key, in table order. A key reads
// tenant, scenario, domain: "aB.m" is alice's mem campaign on scenario B.
func affinityCamps(faults int, keys ...string) []*campState {
	subs := map[byte]*submission{'a': {tenant: "alice"}, 'b': {tenant: "bob"}}
	var out []*campState
	for _, key := range keys {
		job := campaign.ScenarioJob{Scenario: affinityScenarios[key[1]], Domain: fault.Reg, Seed: int64(key[1])}
		if key[3] == 'm' {
			job.Domain = fault.Mem
		}
		out = append(out, &campState{sub: subs[key[0]], key: key,
			group: campaign.GroupKey(job.Scenario.ID(), job.Seed),
			Fold:  campaign.Fold{Job: job, Faults: faults}})
	}
	return out
}

// grantScript asks the table for one lease per worker name in asks and
// records each grant as "worker key[lo,hi) affinity"; tenants is the
// sequence of tenants served.
func grantScript(t *testing.T, tab *leaseTable, asks string) (grants, tenants []string) {
	t.Helper()
	for _, w := range strings.Fields(asks) {
		sh, _ := tab.acquire(w)
		if sh == nil {
			t.Fatalf("worker %s was granted nothing after %v", w, grants)
		}
		grants = append(grants, fmt.Sprintf("%s %s[%d,%d) %s", w, sh.camp.key, sh.lo, sh.hi, affinityNames[sh.affinity]))
		tenants = append(tenants, sh.camp.tenant())
	}
	return grants, tenants
}

func TestLeaseAffinitySequences(t *testing.T) {
	const shardSize = 4
	for _, tc := range []struct {
		name   string
		camps  func() []*campState
		asks   string
		want   []string
		groups map[string]int // distinct groups each worker may be granted
		ghost  bool           // the first asker never returns: check its claim and the attempt cap
	}{
		{
			// x is the faster worker. Each stays on the scenario it opened;
			// x finishes A first and opens C; y, done with B, finds no group
			// unheld and steals C's tail. Table order alone would have
			// alternated both workers through all three scenarios.
			name:  "two workers, three scenarios",
			camps: func() []*campState { return affinityCamps(8, "aA.r", "aA.m", "aB.r", "aB.m", "aC.r", "aC.m") },
			asks:  "x y x x y x x y x y x y",
			want: []string{
				"x aA.r[0,4) fresh", "y aB.r[0,4) fresh", "x aA.r[4,8) own", "x aA.m[0,4) own",
				"y aB.r[4,8) own", "x aA.m[4,8) own", "x aC.r[0,4) fresh", "y aB.m[0,4) own",
				"x aC.r[4,8) own", "y aB.m[4,8) own", "x aC.m[0,4) own", "y aC.m[4,8) steal",
			},
			groups: map[string]int{"x": 2, "y": 2},
		},
		{
			// The rotation alternates alice and bob whoever asks; a worker that
			// takes two grants in a row therefore sees both tenants, and keeps
			// one group in each — what its two-entry group cache holds.
			name:  "two workers, two tenants",
			camps: func() []*campState { return affinityCamps(12, "aA.r", "aB.r", "bC.r", "bD.r") },
			asks:  "x x y y x x y y x x y y",
			want: []string{
				"x aA.r[0,4) fresh", "x bC.r[0,4) fresh", "y aB.r[0,4) fresh", "y bD.r[0,4) fresh",
				"x aA.r[4,8) own", "x bC.r[4,8) own", "y aB.r[4,8) own", "y bD.r[4,8) own",
				"x aA.r[8,12) own", "x bC.r[8,12) own", "y aB.r[8,12) own", "y bD.r[8,12) own",
			},
			groups: map[string]int{"x": 2, "y": 2},
		},
		{
			// ghost leases once and never returns. Its claim on A is only a
			// preference: x opens B and C first, then steals what is pending of
			// A — granted last, not never.
			name:  "departed worker",
			camps: func() []*campState { return affinityCamps(8, "aA.r", "aA.m", "aB.r", "aC.r") },
			asks:  "ghost x x x x x x x",
			want: []string{
				"ghost aA.r[0,4) fresh", "x aB.r[0,4) fresh", "x aB.r[4,8) own", "x aC.r[0,4) fresh",
				"x aC.r[4,8) own", "x aA.r[4,8) steal", "x aA.m[0,4) own", "x aA.m[4,8) own",
			},
			groups: map[string]int{"ghost": 1, "x": 3},
			ghost:  true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
			tab := newLeaseTable(tc.camps(), shardSize, time.Minute, clock.now)
			got, tenants := grantScript(t, tab, tc.asks)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("grants\n got %q\nwant %q", got, tc.want)
			}
			// Every shard is granted exactly once: as many grants as shards,
			// nothing left pending, and no grant repeated.
			seen := map[string]bool{}
			groups := map[string]map[string]bool{}
			for _, g := range got {
				f := strings.Fields(g)
				if seen[f[1]] {
					t.Errorf("shard %s granted twice", f[1])
				}
				seen[f[1]] = true
				if groups[f[0]] == nil {
					groups[f[0]] = map[string]bool{}
				}
				groups[f[0]][f[1][:2]] = true
			}
			if len(got) != tab.total || tab.pending != 0 {
				t.Errorf("%d grants over %d shards, %d still pending", len(got), tab.total, tab.pending)
			}
			for w, n := range tc.groups {
				if len(groups[w]) != n {
					t.Errorf("worker %s was granted %d distinct groups, want %d: %v", w, len(groups[w]), n, groups[w])
				}
			}
			// The rule replaced only the within-tenant rule: the sequence of
			// tenants served is the one a single worker gets from the same
			// table, which TestLeaseGrantSequences pins to the parent's.
			solo := newLeaseTable(tc.camps(), shardSize, time.Minute, clock.now)
			_, want := grantScript(t, solo, strings.Repeat("w ", len(got)))
			if !reflect.DeepEqual(tenants, want) {
				t.Errorf("tenant rotation\n got %v\nwant %v (one worker)", tenants, want)
			}

			if !tc.ghost {
				return
			}
			// Liveness was shown with the stale claim still in the map ...
			if g := tab.held[claim{"ghost", "alice"}]; g != tab.shards[0].camp.group {
				t.Errorf("ghost's claim = %q, want it still on %q", g, tab.shards[0].camp.group)
			}
			// ... and the shard ghost sits on is still bounded by the attempt
			// cap: it expires, is re-leased (to x, which abandons it too) and
			// is given up after maxShardAttempts expiries.
			var abandoned []*shard
			for i := 1; i <= maxShardAttempts; i++ {
				clock.advance(time.Minute + time.Second)
				abandoned = tab.expire()
				if i < maxShardAttempts {
					if sh, _ := tab.acquire("x"); len(abandoned) != 0 || sh != tab.shards[0] {
						t.Fatalf("expiry %d: abandoned %v, re-leased %+v (want ghost's shard again)", i, abandoned, sh)
					}
				}
			}
			if len(abandoned) != 1 || abandoned[0] != tab.shards[0] {
				t.Errorf("abandoned after %d expiries = %v, want ghost's shard", maxShardAttempts, abandoned)
			}
		})
	}
}

// TestAffinityBuildsEachGroupOnce runs three scenarios on two single-slot
// workers and counts fault-free passes: one per scenario, plus at most the
// one tail steal. Under first-pending-in-table-order both workers built all
// three (6).
func TestAffinityBuildsEachGroupOnce(t *testing.T) {
	var jobs []campaign.ScenarioJob
	for i, sc := range []npb.Scenario{affinityScenarios['A'], affinityScenarios['B'], affinityScenarios['C']} {
		for _, d := range []fault.Model{fault.Reg, fault.Mem} {
			jobs = append(jobs, campaign.ScenarioJob{Scenario: sc, Domain: d, Seed: int64(41 + i)})
		}
	}
	const faults = 8
	run := func(path string, matrix func(campaign.Store) error) []string {
		st, err := campaign.OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := matrix(st); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return sortedRecords(t, path)
	}
	ref := run(t.TempDir()+"/engine.jsonl", func(st campaign.Store) error {
		_, err := campaign.New(campaign.Faults(faults), campaign.WithStore(st)).RunMatrix(context.Background(), jobs)
		return err
	})

	builds := func() (n float64) {
		for i := 0; i < len(jobs); i += 2 {
			n += obsGroupBuilds.With(jobs[i].Scenario.ID()).Value()
		}
		return n
	}
	before := builds()
	var steals float64
	got := run(t.TempDir()+"/dist.jsonl", func(st campaign.Store) error {
		coord, err := NewCoordinator(jobs, faults, ShardSize(2), WithStore(st))
		if err != nil {
			return err
		}
		runCluster(t, coord, 2)
		steals = coord.cm.grants.With("steal").Value()
		return nil
	})
	if n := builds() - before; n < 3 || n > 4 {
		t.Errorf("workers built %v groups for 3 scenarios, want 3 (or 4 with the tail steal)", n)
	}
	if steals > 1 {
		t.Errorf("%v grants were steals, want at most the tail's one", steals)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("distributed records differ from engine records:\n dist: %v\n ref:  %v", got, ref)
	}
}

// TestBeatsNeverMoveProgress: a beat that is inverted, wider than its lease,
// replayed or honest is acknowledged and moves no campaign's Injected; only
// completions do, so exactly one JobDone per shard reaches the event stream
// and the campaign still assembles to the engine's row.
func TestBeatsNeverMoveProgress(t *testing.T) {
	jobs := compatJobs()[:1]
	ref := engineReference(t, jobs)
	path := t.TempDir() + "/dist.jsonl"
	st, err := campaign.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	events := make(chan campaign.Event, 64)
	jobDones := make(chan []campaign.JobDone, 1)
	go func() {
		var seen []campaign.JobDone
		for ev := range events {
			switch ev := ev.(type) {
			case campaign.JobDone:
				seen = append(seen, ev)
			case campaign.MatrixDone:
				jobDones <- seen
				return
			}
		}
	}()
	coord, err := NewCoordinator(jobs, compatFaults, ShardSize(2), WithStore(st), WithEvents(events))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl := NewLoopbackClient(coord.Handler())
	liar := NewWorker(cl, Name("liar"))
	r, err := cl.Lease(ctx, liar.name)
	if err != nil || r.Lease == nil {
		t.Fatalf("lease: %+v, %v", r, err)
	}
	l := r.Lease
	beat := func(lo, hi int) {
		t.Helper()
		if err := cl.Event(ctx, EventRequest{Worker: liar.name, LeaseID: l.ID, Key: l.Key, Lo: lo, Hi: hi}); err != nil {
			t.Fatal(err)
		}
		mr, err := coord.Matrix("m000001")
		if err != nil {
			t.Fatal(err)
		}
		if row := mr.CampaignList[0]; row.Injected != 0 {
			t.Errorf("after beat [%d,%d): status shows %d of %d injected, want 0", lo, hi, row.Injected, row.Faults)
		}
	}
	beat(3, 1)  // inverted
	beat(0, 99) // wider than the lease
	req, err := liar.exec(ctx, l)
	if err != nil || req.Err != "" {
		t.Fatalf("exec: %v %s", err, req.Err)
	}
	beat(l.Lo, l.Hi) // honest: the shard's range, run
	beat(l.Lo, l.Hi) // replayed
	if _, err := liar.complete(ctx, req); err != nil {
		t.Fatal(err)
	}
	runCluster(t, coord, 1)
	seen := <-jobDones
	if len(seen) != compatFaults/2 {
		t.Errorf("%d JobDone events reached the stream, want one per shard (%d): %+v", len(seen), compatFaults/2, seen)
	}
	for i, jd := range seen {
		if jd.Done != 2*(i+1) || jd.Total != compatFaults {
			t.Errorf("JobDone %d = %+v, want Done %d of %d", i, jd, 2*(i+1), compatFaults)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sortedRecords(t, path); !reflect.DeepEqual(got, ref) {
		t.Errorf("distributed records differ from engine records:\n dist: %v\n ref:  %v", got, ref)
	}
}

// TestGoldenMismatchFailsCampaign: simulation is deterministic, so a shard
// whose golden summary differs from the one its campaign already holds — a
// stale binary, another model, a host soft error — fails that campaign
// naming both workers; the sibling campaign assembles and Wait returns.
func TestGoldenMismatchFailsCampaign(t *testing.T) {
	coord, err := NewCoordinator(compatJobs()[:2], 4, ShardSize(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl := NewLoopbackClient(coord.Handler())
	var told [2]campaign.GoldenSummary
	for i, name := range []string{"honest", "drifted"} {
		w := NewWorker(cl, Name(name))
		r, err := cl.Lease(ctx, name)
		if err != nil || r.Lease == nil || r.Lease.Key != compatJobs()[0].Key() {
			t.Fatalf("%s lease: %+v, %v (want a shard of the first campaign)", name, r.Lease, err)
		}
		req, err := w.exec(ctx, r.Lease)
		if err != nil || req.Err != "" {
			t.Fatalf("%s exec: %v %s", name, err, req.Err)
		}
		if name == "drifted" {
			req.Golden.Retired++
		}
		told[i] = req.Golden
		if reply, err := cl.Complete(ctx, req); err != nil || !reply.Accepted {
			t.Fatalf("%s complete = %+v, %v (want accepted)", name, reply, err)
		}
	}
	results := runClusterErr(t, coord, fmt.Sprintf(`golden run mismatch: worker "drifted" reports %+v, worker "honest" reported %+v`, told[1], told[0]))
	if results[0] != nil || results[1] == nil || results[1].Counts.Total() != 4 {
		t.Errorf("results = %v, want only the sibling campaign assembled", results)
	}
	if s := coord.Status(); !s.Done || s.Failed != 1 || s.CampaignsDone != 2 {
		t.Errorf("status = %+v", s)
	}
}
