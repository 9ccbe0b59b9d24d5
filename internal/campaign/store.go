// The queryable results database of campaign orchestration. A Store is
// where Engine runs land and where resume, report generation and ad-hoc
// analysis read from — the phase-4 cross-layer database of the paper as an
// interface instead of a raw map[string]*Result. The JSONL file that
// campaigns have always streamed to is the first backend (FileStore);
// MemStore serves tests and in-process pipelines.
package campaign

import (
	"errors"
	"fmt"
	"os"
	"sort"
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
// flat legacy store fails loudly instead of mixing tenants' keys.
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
	// HasRuns selects campaigns whose per-run records are available —
	// live results, or results reloaded from v4 rows. This is the
	// predicate the sensitivity layer uses to find analyzable rows
	// without a full scan.
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

// memIndex is the shared in-memory map behind every Store implementation.
type memIndex struct {
	mu sync.RWMutex
	m  map[string]*Result
}

func (s *memIndex) put(r *Result) error {
	key := r.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*Result)
	}
	if _, dup := s.m[key]; dup {
		return fmt.Errorf("campaign store: duplicate record for %q", key)
	}
	s.m[key] = r
	return nil
}

func (s *memIndex) Get(key string) (*Result, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.m[key]
	return r, ok
}

func (s *memIndex) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (s *memIndex) Query(q Query) []*Result {
	var out []*Result
	for _, k := range s.Keys() {
		r, _ := s.Get(k)
		if r != nil && q.MatchesResult(r) {
			out = append(out, r)
		}
	}
	return out
}

// MemStore is the in-memory Store: tests and in-process
// pipelines that never touch disk. It is also a TenantStore: Tenant(ns)
// returns an isolated per-namespace sub-store, the in-memory analogue of
// the segmented store's per-tenant segment sets.
type MemStore struct {
	memIndex

	tmu     sync.Mutex
	tenants map[string]*MemStore
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Put appends one campaign record, rejecting duplicate keys.
func (s *MemStore) Put(r *Result) error { return s.put(r) }

// Tenant returns the namespace-scoped view: an isolated sub-store sharing
// nothing with other namespaces. The empty namespace is the store itself.
func (s *MemStore) Tenant(ns string) Store {
	if ns == "" {
		return s
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if s.tenants == nil {
		s.tenants = make(map[string]*MemStore)
	}
	t := s.tenants[ns]
	if t == nil {
		t = NewMemStore()
		s.tenants[ns] = t
	}
	return t
}

// FileStore is the JSONL-file Store: existing rows load at open (so an
// Engine run over the same store resumes where the interrupted one
// stopped), and every Put appends one JSONL row immediately — the
// streaming write that makes mid-matrix interruption safe. Keys (like
// every Store) returns sorted order, so status output and record diffs are
// stable across runs and across backends.
type FileStore struct {
	memIndex
	path  string
	fsync bool

	wmu sync.Mutex // one Put at a time: duplicate check, append, index
	log *jsonl.Log
}

// FileStoreOption configures OpenFileStore.
type FileStoreOption func(*FileStore)

// Fsync makes every Put fsync the file before returning. With it, a
// campaign acknowledged to the caller — and, in the distributed fabric, a
// shard acknowledged to a worker via its assembled campaign — survives a
// coordinator host crash, not merely a process exit; without it the write
// sits in the page cache at the OS's mercy. Costs one disk flush per
// campaign record, which campaign-scale streams never notice.
func Fsync() FileStoreOption { return func(s *FileStore) { s.fsync = true } }

// OpenFileStore opens (or creates) the JSONL database at path. Existing
// rows are loaded and served by Get/Keys/Query; subsequent Puts append.
// A missing file is an empty store — the resume convention: -resume over
// a database that was never written resumes from nothing.
func OpenFileStore(path string, opts ...FileStoreOption) (*FileStore, error) {
	s := &FileStore{path: path}
	for _, opt := range opts {
		opt(s)
	}
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
	if s.log, err = openLog(path, n, s.fsync); err != nil {
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
func OpenMatrixStore(path string, resume bool, jobs []ScenarioJob, faults int, opts ...FileStoreOption) (*FileStore, error) {
	if !resume {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	st, err := OpenFileStore(path, opts...)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	if err := ValidateResume(st, jobs, faults); err != nil {
		st.Close()
		return nil, fmt.Errorf("resume %s: %w", path, err)
	}
	return st, nil
}

// Path returns the database file path.
func (s *FileStore) Path() string { return s.path }

// Put appends one campaign record to the file, fsyncing when the store was
// opened with Fsync, and then to the in-memory index: a row the log did not
// acknowledge is in neither.
func (s *FileStore) Put(r *Result) error {
	key := r.Key()
	line, err := recordLine(r)
	if err != nil {
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if _, dup := s.Get(key); dup {
		return fmt.Errorf("campaign store: duplicate record for %q", key)
	}
	if _, err := s.log.Append(line); err != nil {
		return fmt.Errorf("campaign store %s: %w", s.path, err)
	}
	return s.put(r)
}

// Sync flushes the backing file to stable storage without closing it —
// the graceful-shutdown barrier: a store synced before the process prints
// its resume hint cannot advertise campaigns a crash would lose.
func (s *FileStore) Sync() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.log.Sync()
}

// Close closes the backing file. The in-memory index stays readable;
// further Puts fail.
func (s *FileStore) Close() error { return s.log.Close() }
