// The segmented JSONL store: the FileStore's append-only row format scaled
// to long-lived multi-tenant service traffic. One flat JSONL file serves a
// single matrix fine, but a persistent campaign queue accumulates rows
// forever and interleaves tenants; the segmented store keeps the row bytes
// identical (recordLine/decodeRecordLine are shared, so a tenant's rows
// stay byte-for-byte comparable to a local engine run) while organizing
// them into size-rotated append-only segments per tenant namespace, with a
// key index rebuilt from segment footers at open and a compaction pass
// that merges superseded segments.
//
// Layout under the root directory:
//
//	root/default/seg-000001.jsonl        default ("") namespace
//	root/t-<ns>/seg-000001.jsonl         tenant namespace <ns>
//
// A segment holds three line kinds: canonical record rows (exactly the
// FileStore's JSONL rows), tombstones {"del":"<key>"} written by Delete,
// and — as the last line of a sealed segment — a footer carrying the
// segment's net key effect ({"footer":1,"live":{key:offset},"dead":[...]}).
// Opening a store reads only footers for sealed segments (plus a full scan
// of the unsealed tail segment), so open cost is proportional to the
// segment count, not the row count; rows load lazily by offset on Get.
// Replay order is segment-id order, later segments superseding earlier
// ones, which makes compaction crash-safe: the merged segment takes the
// HIGHEST merged id, so a crash that leaves stale lower-id segments behind
// still replays to the merged (newest) state.
package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"serfi/internal/fault"
	"serfi/internal/jsonl"
	"serfi/internal/npb"
)

// DefaultSegmentBytes is the size threshold past which the active segment
// seals and a fresh one opens.
const DefaultSegmentBytes = 4 << 20

// segFooter is the last line of a sealed segment: the segment's net effect
// on the keyspace. Live maps each key that ends the segment alive to the
// byte offset of its row; Dead lists keys the segment net-deletes
// (tombstoned here, written in an earlier segment).
type segFooter struct {
	Footer int              `json:"footer"` // format version, 1
	Live   map[string]int64 `json:"live"`
	Dead   []string         `json:"dead,omitempty"`
}

// segProbe classifies one segment line without fully decoding it.
type segProbe struct {
	Footer   int    `json:"footer,omitempty"`
	Del      string `json:"del,omitempty"`
	Version  int    `json:"v,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	Domain   string `json:"domain,omitempty"`
}

// segment is one on-disk segment file of a tenant partition.
type segment struct {
	id     int
	path   string
	sealed bool
}

// rowRef locates one live row: its segment and the byte offset of its line.
type rowRef struct {
	seg *segment
	off int64
}

// tenantSegs is one tenant namespace's partition: its segment chain, the
// live-key index, the lazily filled row cache, and the write state of the
// unsealed active segment. The partition is the unit of exclusion: mu guards
// every field below it and is held across this partition's appends, fsyncs
// and merges, so one tenant's disk never stalls another's.
type tenantSegs struct {
	ns  string
	dir string

	mu     sync.Mutex
	closed bool // Close has been here: the active file is gone, writes are refused
	segs   []*segment
	idx    map[string]rowRef
	cache  map[string]*Result

	// The unsealed last segment, if there is one: its net effect so far, for
	// its eventual footer, and the length of its acknowledged lines as the
	// open scan found it. Its log opens there at the first write (nil until
	// then), which is when a torn tail is cut.
	active     *jsonl.Log
	activeSeg  *segment
	tailLen    int64
	activeLive map[string]int64
	activeDead map[string]bool

	rows int // data rows written across all segments (garbage = rows - len(idx))
}

// SegmentedStore is the multi-tenant segmented JSONL Store. Construct with
// OpenSegmentedStore. The store itself is the default ("") namespace view;
// Tenant(ns) returns isolated per-namespace views over the same root.
type SegmentedStore struct {
	root    string
	segMax  int64
	fsync   bool
	compact int // auto-compact when a tenant's superseded rows reach this; 0 = manual

	// mu guards the three fields below it and is never held across I/O or
	// while taking a partition's mutex: the order is store, release, then
	// partition, so a partition busy with an fsync or a merge blocks nobody
	// who wants another one.
	mu       sync.Mutex
	tenants  map[string]*tenantSegs
	compactQ chan string // pending auto-compaction namespaces
	closed   bool
	wg       sync.WaitGroup
}

// SegStoreOption configures OpenSegmentedStore.
type SegStoreOption func(*SegmentedStore)

// SegmentBytes sets the rotation threshold: an active segment at or past
// this size seals (footer written) and a fresh segment opens. 0 picks
// DefaultSegmentBytes.
func SegmentBytes(n int64) SegStoreOption { return func(s *SegmentedStore) { s.segMax = n } }

// SegmentSync makes every Put and Delete fsync the active segment before
// returning — the segmented analogue of the FileStore's Fsync option, with
// the same durability contract: an acknowledged row survives a host crash.
func SegmentSync() SegStoreOption { return func(s *SegmentedStore) { s.fsync = true } }

// CompactAfter enables background compaction: whenever a tenant partition
// accumulates at least n superseded rows (deleted or overwritten by a
// later segment), a background pass merges its sealed segments and drops
// the dead rows. 0 (the default) leaves compaction to explicit Compact
// calls.
func CompactAfter(n int) SegStoreOption { return func(s *SegmentedStore) { s.compact = n } }

// OpenSegmentedStore opens (or creates) the segmented store rooted at dir.
// Existing partitions are indexed from their segment footers; the unsealed
// tail segment of each partition is scanned in full. Rows themselves load
// lazily on Get/Query.
func OpenSegmentedStore(dir string, opts ...SegStoreOption) (*SegmentedStore, error) {
	s := &SegmentedStore{
		root:    dir,
		segMax:  DefaultSegmentBytes,
		tenants: make(map[string]*tenantSegs),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.segMax <= 0 {
		s.segMax = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		ns, ok := nsOfDir(e.Name())
		if !ok {
			continue
		}
		t, err := s.openTenant(ns)
		if err != nil {
			return nil, fmt.Errorf("segmented store %s: tenant %q: %w", dir, ns, err)
		}
		s.tenants[ns] = t
	}
	if s.tenants[""] == nil {
		t, err := s.openTenant("")
		if err != nil {
			return nil, err
		}
		s.tenants[""] = t
	}
	if s.compact > 0 {
		s.compactQ = make(chan string, 64)
		s.wg.Add(1)
		go s.compactLoop(s.compactQ)
	}
	return s, nil
}

// tenantDir maps a namespace to its directory name; nsOfDir inverts it.
func tenantDir(ns string) string {
	if ns == "" {
		return "default"
	}
	return "t-" + ns
}

func nsOfDir(name string) (string, bool) {
	if name == "default" {
		return "", true
	}
	if rest, ok := strings.CutPrefix(name, "t-"); ok && rest != "" {
		return rest, true
	}
	return "", false
}

// ValidTenant reports whether ns is usable as a tenant namespace: empty
// (the default namespace) or a short path-safe token.
func ValidTenant(ns string) bool {
	if ns == "" {
		return true
	}
	if len(ns) > 64 {
		return false
	}
	for _, r := range ns {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return false
		}
	}
	return ns[0] != '.'
}

// openTenant indexes one tenant partition from disk.
func (s *SegmentedStore) openTenant(ns string) (*tenantSegs, error) {
	t := s.newTenant(ns)
	entries, err := os.ReadDir(t.dir)
	if os.IsNotExist(err) {
		return t, nil
	}
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		var id int
		if n, _ := fmt.Sscanf(e.Name(), "seg-%06d.jsonl", &id); n != 1 {
			continue
		}
		t.segs = append(t.segs, &segment{id: id, path: filepath.Join(t.dir, e.Name())})
	}
	sort.Slice(t.segs, func(i, j int) bool { return t.segs[i].id < t.segs[j].id })
	for _, seg := range t.segs {
		if err := t.indexSegment(seg); err != nil {
			return nil, fmt.Errorf("%s: %w", seg.path, err)
		}
	}
	return t, nil
}

// indexSegment folds one segment into the tenant index: from its footer
// when sealed, by full scan otherwise. Later segments supersede earlier
// ones, so replay in id order converges to the latest state even when a
// crashed compaction left stale lower-id segments behind.
func (t *tenantSegs) indexSegment(seg *segment) error {
	foot, err := readFooter(seg.path)
	if err != nil {
		return err
	}
	if foot != nil {
		seg.sealed = true
		t.applyNet(seg, foot.Live, foot.Dead)
		t.rows += len(foot.Live)
		t.activeSeg, t.activeLive, t.activeDead = nil, nil, nil
		return nil
	}
	live, dead, rows, valid, err := scanSegment(seg.path)
	if err != nil {
		return err
	}
	t.applyNet(seg, live, deadKeys(dead))
	t.rows += rows
	// Segments index in id order, so what the last one leaves here is the
	// tail ensureActive adopts.
	t.activeSeg, t.activeLive, t.activeDead, t.tailLen = seg, live, dead, valid
	return nil
}

// applyNet applies one segment's net key effect to the tenant index.
func (t *tenantSegs) applyNet(seg *segment, live map[string]int64, dead []string) {
	for _, k := range dead {
		delete(t.idx, k)
	}
	for k, off := range live {
		t.idx[k] = rowRef{seg: seg, off: off}
	}
}

func deadKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// readFooter returns the sealed segment's footer, or nil when the segment
// is unsealed (its last line is not a footer). The footer is found by
// reading the file's tail — footers are small, so 64 KiB is plenty.
func readFooter(path string) (*segFooter, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, nil
	}
	const tail = 64 << 10
	off := size - tail
	if off < 0 {
		off = 0
	}
	buf := make([]byte, size-off)
	if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
		return nil, err
	}
	// A footer whose newline never landed was not acknowledged: a torn tail.
	if buf[len(buf)-1] != '\n' {
		return nil, nil
	}
	// Last non-empty line of the tail window.
	buf = bytes.TrimRight(buf, "\n")
	i := bytes.LastIndexByte(buf, '\n')
	last := buf[i+1:]
	var probe segProbe
	if json.Unmarshal(last, &probe) != nil || probe.Footer == 0 {
		return nil, nil
	}
	var foot segFooter
	if err := json.Unmarshal(last, &foot); err != nil {
		return nil, err
	}
	return &foot, nil
}

// scanSegment reads every line of an unsealed segment and returns its net
// effect (live key offsets, net-deleted keys), its data row count and the
// length of its acknowledged lines. A segment is the service's own file and
// every line it acknowledged ends in a newline, so what follows the last one
// is a write that never finished: dropped here, cut when the log is opened.
func scanSegment(path string) (live map[string]int64, dead map[string]bool, rows int, valid int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	defer f.Close()
	live = make(map[string]int64)
	dead = make(map[string]bool)
	valid, _, err = jsonl.Scan(f, func(off int64, line []byte) error {
		if len(line) == 0 {
			return nil
		}
		var probe segProbe
		if err := json.Unmarshal(line, &probe); err != nil {
			return fmt.Errorf("offset %d: %w", off, err)
		}
		switch {
		case probe.Footer != 0:
			// A footer mid-file cannot happen in a well-formed segment;
			// ignore it.
		case probe.Del != "":
			delete(live, probe.Del)
			dead[probe.Del] = true
		case probe.Scenario != "":
			key, err := rowKey(probe)
			if err != nil {
				return fmt.Errorf("offset %d: %w", off, err)
			}
			rows++
			live[key] = off
			delete(dead, key)
		default:
			return fmt.Errorf("offset %d: unrecognized segment line", off)
		}
		return nil
	})
	return live, dead, rows, valid, err
}

// rowKey derives the canonical campaign key from a probed record line
// without decoding the full row: scenario ID plus the domain qualifier,
// exactly as Key builds it.
func rowKey(probe segProbe) (string, error) {
	sc, err := npb.ParseID(probe.Scenario)
	if err != nil {
		return "", err
	}
	if probe.Domain == "" {
		// Legacy unversioned rows are implicitly register-domain.
		return Key(sc, fault.Reg), nil
	}
	d, err := fault.ParseModel(probe.Domain)
	if err != nil {
		return "", err
	}
	return Key(sc, d), nil
}

// Put appends one record to the default namespace.
func (s *SegmentedStore) Put(r *Result) error { return s.put("", r) }

// Get reads one record from the default namespace.
func (s *SegmentedStore) Get(key string) (*Result, bool) { return s.get("", key) }

// Keys lists the default namespace's keys in sorted order.
func (s *SegmentedStore) Keys() []string { return s.keys("") }

// Query runs q over the default namespace.
func (s *SegmentedStore) Query(q Query) []*Result { return s.query("", q) }

// Delete tombstones one key in the default namespace; the row becomes
// superseded garbage until compaction drops it.
func (s *SegmentedStore) Delete(key string) error { return s.delete("", key) }

// Tenant returns the namespace-scoped Store view. The empty namespace is
// the store itself.
func (s *SegmentedStore) Tenant(ns string) Store {
	if ns == "" {
		return s
	}
	return &segTenantView{s: s, ns: ns}
}

// TenantNames lists the namespaces present on disk (the default namespace
// included only when it holds rows), sorted.
func (s *SegmentedStore) TenantNames() []string {
	var names []string
	for _, t := range s.partitions() {
		if t.ns != "" || len(s.keys("")) > 0 {
			names = append(names, t.ns)
		}
	}
	sort.Strings(names)
	return names
}

// segTenantView is the Store face of one named namespace.
type segTenantView struct {
	s  *SegmentedStore
	ns string
}

func (v *segTenantView) Put(r *Result) error            { return v.s.put(v.ns, r) }
func (v *segTenantView) Get(key string) (*Result, bool) { return v.s.get(v.ns, key) }
func (v *segTenantView) Keys() []string                 { return v.s.keys(v.ns) }
func (v *segTenantView) Query(q Query) []*Result        { return v.s.query(v.ns, q) }

// Delete tombstones one key in this namespace.
func (v *segTenantView) Delete(key string) error { return v.s.delete(v.ns, key) }

func (s *SegmentedStore) newTenant(ns string) *tenantSegs {
	return &tenantSegs{
		ns:    ns,
		dir:   filepath.Join(s.root, tenantDir(ns)),
		idx:   make(map[string]rowRef),
		cache: make(map[string]*Result),
	}
}

// partition returns ns's partition, nil when the store has none.
func (s *SegmentedStore) partition(ns string) *tenantSegs {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[ns]
}

// partitions returns every partition the store has right now.
func (s *SegmentedStore) partitions() []*tenantSegs {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Collect(maps.Values(s.tenants))
}

var errSegClosed = errors.New("segmented store: closed")

// writable returns ns's partition, created on demand, with its mutex held;
// the caller hands it back through release. A closed store creates none, and
// a partition refuses writes from the moment Close has been to it.
func (s *SegmentedStore) writable(ns string) (*tenantSegs, error) {
	if !ValidTenant(ns) {
		return nil, fmt.Errorf("segmented store: invalid tenant namespace %q", ns)
	}
	s.mu.Lock()
	t := s.tenants[ns]
	if t == nil && !s.closed {
		t = s.newTenant(ns)
		s.tenants[ns] = t
	}
	s.mu.Unlock()
	if t == nil {
		return nil, errSegClosed
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errSegClosed
	}
	return t, nil
}

// release unlocks a partition after a write and, when its garbage has
// reached the CompactAfter threshold, queues a background pass for it.
func (s *SegmentedStore) release(t *tenantSegs) {
	due := s.compact > 0 && t.rows-len(t.idx) >= s.compact
	t.mu.Unlock()
	if !due {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.compactQ != nil {
		select {
		case s.compactQ <- t.ns:
		default: // the queue is full of passes that will observe the garbage
		}
	}
}

// ensureActive opens (rotating first if needed) the tenant's active
// segment for appending. Caller holds t.mu.
func (s *SegmentedStore) ensureActive(t *tenantSegs) (err error) {
	// Adopt an unsealed tail segment left by a previous process, so a
	// reopened store keeps appending instead of sprouting tiny segments. A
	// tail already at size is sealed in place and a fresh one opened.
	if t.active == nil && t.activeSeg != nil {
		if t.active, err = openLog(t.activeSeg.path, t.tailLen, s.fsync); err != nil {
			return err
		}
	}
	if t.active != nil {
		if t.active.Len() < s.segMax {
			return nil
		}
		if err := s.sealLocked(t); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(t.dir, 0o755); err != nil {
		return err
	}
	id := 1
	if n := len(t.segs); n > 0 {
		id = t.segs[n-1].id + 1
	}
	seg := &segment{id: id, path: filepath.Join(t.dir, fmt.Sprintf("seg-%06d.jsonl", id))}
	if t.active, err = openLog(seg.path, 0, s.fsync); err != nil {
		return err
	}
	t.segs = append(t.segs, seg)
	t.activeSeg = seg
	t.activeLive = make(map[string]int64)
	t.activeDead = make(map[string]bool)
	return nil
}

// sealLocked writes the active segment's footer, fsyncs and closes it.
// Caller holds t.mu.
func (s *SegmentedStore) sealLocked(t *tenantSegs) error {
	if t.active == nil {
		return nil
	}
	foot := segFooter{Footer: 1, Live: t.activeLive, Dead: deadKeys(t.activeDead)}
	if foot.Live == nil {
		foot.Live = map[string]int64{}
	}
	data, err := json.Marshal(&foot)
	if err != nil {
		return err
	}
	if _, err := t.active.Append(data); err != nil {
		return err
	}
	if err := t.active.Sync(); err != nil {
		return err
	}
	if err := t.active.Close(); err != nil {
		return err
	}
	t.activeSeg.sealed = true
	t.active, t.activeSeg = nil, nil
	t.activeLive, t.activeDead = nil, nil
	return nil
}

func (s *SegmentedStore) put(ns string, r *Result) error {
	key := r.Key()
	t, err := s.writable(ns)
	if err != nil {
		return err
	}
	defer s.release(t)
	if _, dup := t.idx[key]; dup {
		return fmt.Errorf("campaign store: duplicate record for %q", key)
	}
	if err := s.ensureActive(t); err != nil {
		return fmt.Errorf("segmented store %s: %w", s.root, err)
	}
	line, err := recordLine(r)
	if err != nil {
		return err
	}
	off, err := t.active.Append(line)
	if err != nil {
		return fmt.Errorf("segmented store %s: %w", s.root, err)
	}
	t.activeLive[key] = off
	delete(t.activeDead, key)
	t.idx[key] = rowRef{seg: t.activeSeg, off: off}
	t.cache[key] = r
	t.rows++
	return nil
}

func (s *SegmentedStore) delete(ns, key string) error {
	t, err := s.writable(ns)
	if err != nil {
		return err
	}
	defer s.release(t)
	if _, ok := t.idx[key]; !ok {
		return fmt.Errorf("segmented store: no record for %q", key)
	}
	if err := s.ensureActive(t); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Del string `json:"del"`
	}{key})
	if err != nil {
		return err
	}
	if _, err := t.active.Append(data); err != nil {
		return err
	}
	delete(t.activeLive, key)
	t.activeDead[key] = true
	delete(t.idx, key)
	delete(t.cache, key)
	return nil
}

func (s *SegmentedStore) get(ns, key string) (*Result, bool) {
	t := s.partition(ns)
	if t == nil {
		return nil, false
	}
	r := t.load([]string{key})[0]
	return r, r != nil
}

// load returns the rows of keys, position for position, nil where the
// partition has no such row. Cached rows come back as they are. The rest are
// read with the partition unlocked, and a read only counts if the index
// still names the place it read once the lock is retaken: a merge or a
// rewrite in between (the merge unlinks the file, and renames a new one to
// the last segment's path) sends the key round again instead of reporting a
// live row missing.
func (t *tenantSegs) load(keys []string) []*Result {
	out := make([]*Result, len(keys))
	refs := make([]rowRef, len(keys)) // where out[i] was read from
	todo := make([]int, len(keys))
	for i := range todo {
		todo[i] = i
	}
	var buf []byte
	for {
		t.mu.Lock()
		unread := todo[:0]
		for _, i := range todo {
			ref, live := t.idx[keys[i]]
			switch r := t.cache[keys[i]]; {
			case r != nil:
				out[i] = r
			case !live:
				out[i] = nil
			case ref != refs[i]:
				out[i], refs[i] = nil, ref
				unread = append(unread, i)
			case out[i] != nil:
				t.cache[keys[i]] = out[i]
			}
		}
		t.mu.Unlock()
		if todo = unread; len(todo) == 0 {
			return out
		}
		files := segFiles{}
		for _, i := range todo {
			line, err := files.row(refs[i], buf)
			if err != nil {
				continue
			}
			buf = line
			out[i], _ = decodeRecordLine(bytes.TrimRight(line, "\n"))
		}
		files.close()
	}
}

// segFiles is the one row reader, for a batch of reads that opens each
// segment once.
type segFiles map[*segment]*os.File

// row returns the line at ref, newline included (supplied when the file ends
// without one), in buf's storage, grown as needed — a buffer handed back in
// serves every row of the batch.
func (fs segFiles) row(ref rowRef, buf []byte) ([]byte, error) {
	f := fs[ref.seg]
	if f == nil {
		var err error
		if f, err = os.Open(ref.seg.path); err != nil {
			return nil, err
		}
		fs[ref.seg] = f
	}
	buf = buf[:0]
	for {
		buf = slices.Grow(buf, 4<<10)
		n, err := f.ReadAt(buf[len(buf):cap(buf)], ref.off+int64(len(buf)))
		if i := bytes.IndexByte(buf[len(buf):len(buf)+n], '\n'); i >= 0 {
			return buf[:len(buf)+i+1], nil
		}
		buf = buf[:len(buf)+n]
		switch {
		case err == io.EOF && len(buf) > 0:
			return append(buf, '\n'), nil
		case err != nil:
			return nil, err
		}
	}
}

func (fs segFiles) close() {
	for _, f := range fs {
		f.Close()
	}
}

func (s *SegmentedStore) keys(ns string) []string {
	t := s.partition(ns)
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Sorted(maps.Keys(t.idx))
}

func (s *SegmentedStore) query(ns string, q Query) []*Result {
	t := s.partition(ns)
	if t == nil {
		return nil
	}
	// Identity predicates resolve from the key alone — no row load for
	// campaigns the query filters out.
	keys := slices.DeleteFunc(s.keys(ns), func(k string) bool {
		sc, d, err := ParseKey(k)
		return err == nil && !q.Matches(sc, d)
	})
	var out []*Result
	for _, r := range t.load(keys) {
		if r != nil && q.MatchesResult(r) {
			out = append(out, r)
		}
	}
	return out
}

// Garbage returns the superseded (deleted or overwritten) row count of one
// namespace — the rows a compaction pass would drop.
func (s *SegmentedStore) Garbage(ns string) int {
	t := s.partition(ns)
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rows - len(t.idx)
}

// Segments returns how many on-disk segments one namespace currently has.
func (s *SegmentedStore) Segments(ns string) int {
	t := s.partition(ns)
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.segs)
}

// Compact merges one namespace's segments into a single sealed segment
// holding only live rows, in sorted key order, and deletes the superseded
// segment files. Row bytes are copied verbatim from their source segments,
// so compaction can never perturb the byte-identity contract. The merged
// segment takes the highest existing id and is renamed into place
// atomically; stale lower-id segments left by a crash are superseded on
// the next open by replay order.
func (s *SegmentedStore) Compact(ns string) error {
	t := s.partition(ns)
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return s.compactLocked(t)
}

func (s *SegmentedStore) compactLocked(t *tenantSegs) error {
	if len(t.segs) == 0 {
		return nil
	}
	if err := s.sealLocked(t); err != nil {
		return err
	}
	keys := slices.Sorted(maps.Keys(t.idx))
	last := t.segs[len(t.segs)-1]
	tmp := last.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	merged := &segment{id: last.id, path: last.path, sealed: true}
	foot := segFooter{Footer: 1, Live: make(map[string]int64, len(keys))}
	w := bufio.NewWriterSize(f, 256<<10)
	var off int64
	var rows int
	// Compaction copies bytes, never re-marshals; every source segment is
	// opened once for the whole pass.
	files := segFiles{}
	defer files.close()
	var line []byte
	for _, k := range keys {
		if line, err = files.row(t.idx[k], line); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("compact %s: %q: %w", t.dir, k, err)
		}
		if _, err := w.Write(line); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		foot.Live[k] = off
		off += int64(len(line))
		rows++
	}
	data, err := json.Marshal(&foot)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, merged.path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Drop the superseded segments (all but the merged id). A crash partway
	// leaves stale lower-id files, which replay order renders harmless.
	for _, seg := range t.segs[:len(t.segs)-1] {
		os.Remove(seg.path)
	}
	t.segs = []*segment{merged}
	t.activeSeg, t.activeLive, t.activeDead = nil, nil, nil // an unsealed tail nobody had written to is merged like the rest
	t.rows = rows
	newIdx := make(map[string]rowRef, rows)
	for k, o := range foot.Live {
		newIdx[k] = rowRef{seg: merged, off: o}
	}
	t.idx = newIdx
	return nil
}

// compactLoop is the background compaction worker. It owns its end of the
// queue as an argument: Close nils the s.compactQ field under s.mu, and a
// goroutine first scheduled after that would range over a nil channel
// forever while Close waits on s.wg. Every write past the threshold queues
// a pass, so a pass looks at the garbage again before it rewrites anything:
// all but the first find it gone.
func (s *SegmentedStore) compactLoop(q <-chan string) {
	defer s.wg.Done()
	for ns := range q {
		t := s.partition(ns)
		t.mu.Lock()
		if !t.closed && t.rows-len(t.idx) >= s.compact {
			s.compactLocked(t)
		}
		t.mu.Unlock()
	}
}

// Sync fsyncs every active segment — the graceful-shutdown barrier before
// a resume hint is printed.
func (s *SegmentedStore) Sync() error {
	var first error
	for _, t := range s.partitions() {
		t.mu.Lock()
		if t.active != nil {
			if err := t.active.Sync(); err != nil && first == nil {
				first = err
			}
		}
		t.mu.Unlock()
	}
	return first
}

// Close syncs and closes every active segment and stops the background
// compactor. The in-memory index stays readable; further writes fail. The
// store is marked closed first (no partition is born after that) and the
// partitions are then closed one at a time, each behind whatever write or
// merge it is in the middle of.
func (s *SegmentedStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	q := s.compactQ
	s.compactQ = nil
	s.mu.Unlock()
	var first error
	for _, t := range s.partitions() {
		t.mu.Lock()
		t.closed = true
		if t.active != nil {
			if err := t.active.Sync(); err != nil && first == nil {
				first = err
			}
			if err := t.active.Close(); err != nil && first == nil {
				first = err
			}
			t.active = nil
		}
		t.mu.Unlock()
	}
	if q != nil {
		close(q)
		s.wg.Wait()
	}
	return first
}
