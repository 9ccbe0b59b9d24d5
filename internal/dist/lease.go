// The coordinator's lease table: every shard of every campaign, its lease
// state and its deadline. The table is the single source of truth for what
// is pending, in flight and done; expiry is lazy (checked under the lock on
// every acquire), so the fabric needs no background timer goroutine and
// tests can drive time explicitly.
//
// Grant order is fair-share across tenants: a strict rotation by tenant
// name over the tenants with pending shards, one shard per turn, so no
// tenant starves however lopsided the queue is. Every shard costs at most
// one shard size, which is why nothing finer than taking turns is needed (a
// deficit round-robin with that quantum grants the identical sequence:
// TestLeaseGrantSequences).
//
// Within the tenant whose turn it is, grants are scenario-affine: a worker
// keeps the group (scenario, seed) it last built for that tenant, an idle
// worker opens a group nobody holds, and only then steals from a group
// another worker holds — so the cluster runs each fault-free pass once and
// nothing waits on a departed worker (TestLeaseAffinitySequences).
package dist

import (
	"time"

	"serfi/internal/campaign"
)

// shardState is the lifecycle of one shard: pending (no live lease),
// leased (granted, deadline armed), done (results folded, or the owning
// campaign retired another way).
type shardState int

const (
	shardPending shardState = iota
	shardLeased
	shardDone
)

// shard is one unit of distributable work: a contiguous fault index range
// of one campaign.
type shard struct {
	camp   *campState
	lo, hi int

	state    shardState
	leaseID  int64
	worker   string
	deadline time.Time
	expiries int // leases on this shard that ran out unanswered
	affinity int // how the current lease ranked for its holder (affinityNames)
}

// The within-tenant grant order: a shard of the asking worker's own group,
// then of a group nobody holds, then (steal) of a group another worker holds.
const (
	affinityOwn = iota
	affinityFresh
	affinitySteal
)

var affinityNames = [...]string{"own", "fresh", "steal"}

// claim keys the affinity map by tenant as well as worker: that keeps a
// worker on its scenario while the rotation alternates tenants, and one
// group per tenant is what the worker's group cache holds.
type claim struct{ worker, tenant string }

// maxShardAttempts is how many leases on one shard may expire before the
// coordinator gives the shard up and fails its campaign. Not an option: a
// healthy shard finishes well inside one generous TTL, so a third silent
// holder means the fault itself kills or hangs workers (OOM, a host loop
// past the TTL) and every further grant would only take another one down.
const maxShardAttempts = 3

// leaseTable tracks every shard. It is not self-locking: the coordinator
// serializes access under its own mutex, which also covers campaign state.
type leaseTable struct {
	shards   []*shard
	nextID   int64
	ttl      time.Duration
	now      func() time.Time
	reissued int // expired leases returned to pending

	total   int // shards ever added (survives pruning)
	pending int // shards with no live lease
	leased  int // shards in flight
	done    int // shards retired (cumulative; pruned shards stay counted)

	// Fair-share state: the rotation pointer (grants resume after the tenant
	// served last).
	lastTenant string

	// Affinity state: the group of each worker's latest grant in each tenant.
	// A claim is a preference, never a reservation: a group whose holder left
	// is granted last, not never. pruneDone drops claims on finished groups.
	held map[claim]string
}

// newLeaseTable shards every open campaign into [lo, hi) ranges of at most
// shardSize faults, in campaign order. Campaigns already answered from the
// store contribute no shards.
func newLeaseTable(camps []*campState, shardSize int, ttl time.Duration, now func() time.Time) *leaseTable {
	t := &leaseTable{ttl: ttl, now: now, held: make(map[claim]string)}
	t.add(camps, shardSize)
	return t
}

// add shards a batch of open campaigns into the table — the submission
// path of the queue.
func (t *leaseTable) add(camps []*campState, shardSize int) {
	for _, c := range camps {
		if c.done {
			continue
		}
		// A zero-fault campaign still gets its one (empty) shard, so that
		// some worker reports its golden metadata and it can assemble.
		for _, r := range campaign.ShardRanges(c.Faults, shardSize) {
			t.shards = append(t.shards, &shard{camp: c, lo: r[0], hi: r[1]})
			c.shardsLeft++
			t.total++
			t.pending++
		}
	}
}

// expire returns every overdue lease to pending and reports the shards that
// have now used up maxShardAttempts leases (worker still names the last
// holder); the coordinator fails those campaigns instead of granting them
// again. Called under the coordinator lock before any grant or status read.
func (t *leaseTable) expire() (abandoned []*shard) {
	now := t.now()
	for _, s := range t.shards {
		if s.state == shardLeased && now.After(s.deadline) {
			s.state = shardPending
			s.leaseID = 0
			t.reissued++
			t.leased--
			t.pending++
			if s.expiries++; s.expiries >= maxShardAttempts {
				abandoned = append(abandoned, s)
			}
		}
	}
	return abandoned
}

// acquire grants one pending shard to worker under the fair-share policy,
// arming its deadline; the coordinator reaps overdue leases first. allRetired
// reports that every shard ever added is retired (a draining coordinator
// translates that to Done); a nil shard with allRetired false means
// everything left is currently leased — retry.
func (t *leaseTable) acquire(worker string) (s *shard, allRetired bool) {
	if t.done == t.total {
		return nil, true
	}
	// Rotation: the grant goes to the first tenant after the one served
	// last, by name, that has a pending shard — wrapping to the smallest
	// name — so grants interleave tenants even when one tenant's shards
	// dominate the table. Within a tenant the lowest affinity rank wins, and
	// within a rank the first pending shard in table (submission) order: the
	// strict < keeps the earliest.
	others := make(map[string]bool, len(t.held)) // groups another worker holds
	for cl, g := range t.held {
		if cl.worker != worker {
			others[g] = true
		}
	}
	ahead := func(sh, best *shard, tn string) bool {
		if best == nil || tn != best.camp.tenant() {
			return best == nil || tn < best.camp.tenant()
		}
		return sh.affinity < best.affinity
	}
	var next, wrap *shard
	for _, sh := range t.shards {
		if sh.state != shardPending {
			continue
		}
		tn := sh.camp.tenant()
		sh.affinity = affinityFresh
		if own, ok := t.held[claim{worker, tn}]; ok && own == sh.camp.group {
			sh.affinity = affinityOwn
		} else if others[sh.camp.group] {
			sh.affinity = affinitySteal
		}
		if tn > t.lastTenant {
			if ahead(sh, next, tn) {
				next = sh
			}
		} else if ahead(sh, wrap, tn) {
			wrap = sh
		}
	}
	if next == nil {
		next = wrap
	}
	if next == nil {
		return nil, false
	}
	t.lastTenant = next.camp.tenant()
	t.held[claim{worker, t.lastTenant}] = next.camp.group
	t.nextID++
	next.state = shardLeased
	next.leaseID = t.nextID
	next.worker = worker
	next.deadline = t.now().Add(t.ttl)
	t.pending--
	t.leased++
	return next, false
}

// complete retires the shard worker holds under leaseID, or reports it
// stale: the lease expired and was re-issued, the shard was already
// completed by another holder, the ID was never granted, or another worker
// holds it. Stale completions are discarded without touching campaign
// state — a re-executed shard produces bit-identical results, so dropping
// either copy is sound and dropping the stale one guarantees no result is
// folded twice.
func (t *leaseTable) complete(leaseID int64, worker, key string, lo, hi int) (s *shard, stale bool) {
	sh := t.holder(leaseID, worker)
	if sh == nil || sh.camp.key != key || sh.lo != lo || sh.hi != hi {
		return nil, true // no live lease of this worker's, or a malformed echo of one
	}
	t.retire(sh)
	return sh, false
}

// holder returns the live shard granted to worker under leaseID, if any
// (used to validate completions).
func (t *leaseTable) holder(leaseID int64, worker string) *shard {
	for _, sh := range t.shards {
		if sh.state == shardLeased && sh.leaseID == leaseID && sh.worker == worker {
			return sh
		}
	}
	return nil
}

// retire marks one shard done, whatever state it was in.
func (t *leaseTable) retire(sh *shard) {
	switch sh.state {
	case shardDone:
		return
	case shardLeased:
		t.leased--
	case shardPending:
		t.pending--
	}
	sh.state = shardDone
	t.done++
}

// retireCampaign drops every remaining shard of a failed (or cancelled)
// campaign so the table still drains to completion.
func (t *leaseTable) retireCampaign(c *campState) {
	for _, sh := range t.shards {
		if sh.camp == c {
			t.retire(sh)
		}
	}
}

// pruneDone drops retired shards from the scan slice — a long-lived queue
// would otherwise scan every shard ever submitted on each acquire. The
// cumulative counters (total, done, reissued) keep counting
// pruned shards, so status arithmetic is unchanged. Claims on groups with
// no shard left go with them.
func (t *leaseTable) pruneDone() {
	live := t.shards[:0]
	groups := make(map[string]bool)
	for _, sh := range t.shards {
		if sh.state != shardDone {
			live = append(live, sh)
			groups[sh.camp.group] = true
		}
	}
	for cl, g := range t.held {
		if !groups[g] {
			delete(t.held, cl)
		}
	}
	for i := len(live); i < len(t.shards); i++ {
		t.shards[i] = nil
	}
	t.shards = live
}

// pendingByTenant tallies pending shards per tenant (the queue-depth
// gauges).
func (t *leaseTable) pendingByTenant() map[string]int {
	out := make(map[string]int)
	for _, sh := range t.shards {
		if sh.state == shardPending {
			out[sh.camp.tenant()]++
		}
	}
	return out
}
