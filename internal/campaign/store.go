// The queryable results database of campaign orchestration. A Store is
// where Engine runs land and where resume, report generation and ad-hoc
// analysis read from — the phase-4 cross-layer database of the paper as an
// interface instead of a raw map[string]*Result. Both backends hold the
// same "v":4 JSONL rows on disk and append them through jsonl.Log, which
// fsyncs every append before it returns: the FileStore is the one file a
// matrix run streams to, the SegmentedStore (segstore.go) the multi-tenant
// directory the service keeps.
package campaign

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"sync"

	"serfi/internal/fault"
	"serfi/internal/jsonl"
	"serfi/internal/npb"
)

// Store is a campaign results database keyed by Key (scenario ID,
// domain-qualified for non-register domains). Put is a streaming append:
// Engine calls it once per freshly completed campaign, in completion
// order, so an interrupted run leaves every completed campaign durable.
// Implementations must be safe for concurrent use.
type Store interface {
	// Put appends one campaign record. A key already present is rejected
	// with an error (campaign identities are immutable; resume skips them
	// instead of rewriting them).
	Put(*Result) error
	// Get returns the campaign stored under key.
	Get(key string) (*Result, bool)
	// Keys returns every stored campaign key in sorted order.
	Keys() []string
	// Query returns the campaigns matching q in sorted key order.
	Query(Query) []*Result
}

// TenantStore is a Store that can partition its keyspace into named tenant
// namespaces. Tenant returns a Store view scoped to one namespace: keys,
// rows and duplicate detection are isolated per namespace, while the record
// row format stays exactly the canonical JSONL — tenancy lives in store
// organization, never in row content, so a tenant's rows remain
// byte-identical to a single-tenant run. Tenant("") returns the default
// (unscoped) view. Views of the same namespace alias the same data.
type TenantStore interface {
	Store
	Tenant(ns string) Store
}

// TenantView resolves a tenant-scoped view of st. The empty namespace is
// the store itself (every backend supports it); a named namespace needs a
// TenantStore backend and errors otherwise, so a multi-tenant queue over a
// flat FileStore fails loudly instead of mixing tenants' keys.
func TenantView(st Store, ns string) (Store, error) {
	if ns == "" || st == nil {
		return st, nil
	}
	ts, ok := st.(TenantStore)
	if !ok {
		return nil, fmt.Errorf("campaign store: backend %T cannot scope tenant %q (need a TenantStore, e.g. OpenSegmentedStore)", st, ns)
	}
	return ts.Tenant(ns), nil
}

// Query selects campaigns by conjunctive predicates. Each field constrains
// one axis when non-empty and matches everything when empty, so the zero
// Query selects the whole store.
type Query struct {
	Apps    []string      // benchmark names ("IS", "MG", ...)
	Domains []fault.Model // fault domains
	// HasRuns selects campaigns that have at least one fault: the rows
	// the sensitivity layer can attribute.
	HasRuns bool
	// Match, when set, is an arbitrary extra predicate ANDed with the
	// field constraints: any other identity axis (ISA, mode, cores).
	Match func(npb.Scenario, fault.Model) bool
}

// Matches reports whether one (scenario, domain) campaign satisfies q's
// identity constraints. HasRuns needs the full record — MatchesResult
// checks it too.
func (q Query) Matches(sc npb.Scenario, d fault.Model) bool {
	if len(q.Apps) > 0 && !contains(q.Apps, sc.App) {
		return false
	}
	if len(q.Domains) > 0 && !contains(q.Domains, d) {
		return false
	}
	return q.Match == nil || q.Match(sc, d)
}

// MatchesResult reports whether a stored campaign satisfies the whole
// query: the identity constraints of Matches plus HasRuns.
func (q Query) MatchesResult(r *Result) bool {
	return q.Matches(r.Scenario, r.Domain) && (!q.HasRuns || len(r.Runs) > 0)
}

func contains[T comparable](xs []T, x T) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Recorded returns the campaign st already holds under job's key, or nil
// when it holds none (or st is nil). A stored campaign only answers a job
// drawn identically: resuming across a changed fault count would silently
// mix sample sizes in one database (rate comparisons over unequal n), and
// a changed base seed would make the matrix irreproducible from any single
// seed — both are errors. The engine and the distributed coordinator both
// resume through this one rule.
func Recorded(st Store, job ScenarioJob, faults int) (*Result, error) {
	if st == nil {
		return nil, nil
	}
	r, ok := st.Get(job.Key())
	if !ok {
		return nil, nil
	}
	if r.Faults != faults {
		return nil, fmt.Errorf("%s has %d faults recorded, current run uses %d (match the fault count or start a fresh database)",
			job.Key(), r.Faults, faults)
	}
	if r.Seed != job.Seed {
		return nil, fmt.Errorf("%s was drawn with seed %d, current run uses seed %d (match the base seed or start a fresh database)",
			job.Key(), r.Seed, job.Seed)
	}
	return r, nil
}

// ValidateResume applies the Recorded rule to a whole matrix up front, so
// a CLI can refuse a mismatched -resume before anything runs.
func ValidateResume(st Store, jobs []ScenarioJob, faults int) error {
	for _, job := range jobs {
		if _, err := Recorded(st, job, faults); err != nil {
			return err
		}
	}
	return nil
}

// FileStore is the JSONL-file Store: existing rows load at open (so an
// Engine run over the same store resumes where the interrupted one
// stopped), and every Put appends and fsyncs one JSONL row before it
// returns — the streaming write that makes mid-matrix interruption safe
// and leaves an acknowledged campaign on disk through a host crash. Keys
// (like every Store) returns sorted order, so status output and record
// diffs are stable across runs and across backends.
type FileStore struct {
	path string

	// mu guards m and log. A Put holds it across its duplicate check, its
	// synced append and the index update.
	mu  sync.Mutex
	m   map[string]*Result
	log *jsonl.Log
}

// OpenFileStore opens (or creates) the JSONL database at path. Existing
// rows are loaded and served by Get/Keys/Query; subsequent Puts append.
// A missing file is an empty store — the resume convention: -resume over
// a database that was never written resumes from nothing. A command that
// only reads a database opens it with ReadDB instead, which never writes.
func OpenFileStore(path string) (*FileStore, error) {
	s := &FileStore{path: path, m: make(map[string]*Result)}
	var n int64
	var unterminated bool
	if rf, err := os.Open(path); err == nil {
		s.m, n, unterminated, err = readDB(rf)
		rf.Close()
		if err != nil {
			return nil, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	var err error
	if s.log, err = openLog(path, n); err != nil {
		return nil, err
	}
	// A whole last row without its newline: end it, or the next Put would be
	// glued onto it.
	if unterminated {
		if _, err = s.log.Append(nil); err != nil {
			s.log.Close()
			return nil, fmt.Errorf("campaign store %s: %w", s.path, err)
		}
	}
	return s, nil
}

// openLog opens every durable file this package appends to. A variable so
// that tests can put a failing file under a store.
var openLog = jsonl.Open

// OpenMatrixStore opens the JSONL database one matrix run streams to: a
// fresh run (resume false) starts from an empty file, a resumed one loads
// the recorded campaigns, which must match the run's jobs (ValidateResume).
// A matrix ValidateJobs refuses leaves the file as it was.
func OpenMatrixStore(path string, resume bool, jobs []ScenarioJob, faults int) (*FileStore, error) {
	if err := ValidateJobs(jobs, faults); err != nil {
		return nil, err
	}
	if !resume {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	st, err := OpenFileStore(path)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	if err := ValidateResume(st, jobs, faults); err != nil {
		st.Close()
		return nil, fmt.Errorf("resume %s: %w", path, err)
	}
	return st, nil
}

// Put appends one campaign record to the file and fsyncs it, then adds it
// to the in-memory index: a row the log did not acknowledge is in neither.
func (s *FileStore) Put(r *Result) error {
	key := r.Key()
	line, err := recordLine(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.m[key]; dup {
		return fmt.Errorf("campaign store: duplicate record for %q", key)
	}
	if _, err := s.log.Append(line); err != nil {
		return fmt.Errorf("campaign store %s: %w", s.path, err)
	}
	s.m[key] = r
	return nil
}

// Get returns the campaign stored under key.
func (s *FileStore) Get(key string) (*Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[key]
	return r, ok
}

// Keys returns every stored campaign key in sorted order.
func (s *FileStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Sorted(maps.Keys(s.m))
}

// Query returns the campaigns matching q in sorted key order.
func (s *FileStore) Query(q Query) []*Result {
	var out []*Result
	for _, k := range s.Keys() {
		r, _ := s.Get(k)
		if r != nil && q.MatchesResult(r) {
			out = append(out, r)
		}
	}
	return out
}

// Close closes the backing file. The in-memory index stays readable;
// further Puts fail.
func (s *FileStore) Close() error { return s.log.Close() }
