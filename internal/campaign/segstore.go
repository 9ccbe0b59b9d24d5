// The segmented JSONL store: the FileStore's append-only row format scaled
// to long-lived multi-tenant service traffic. One flat JSONL file serves a
// single matrix fine, but a persistent campaign queue accumulates rows
// forever and interleaves tenants; the segmented store keeps the row bytes
// identical (writeRecord/decodeRecordLine are shared, so a tenant's rows
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
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"serfi/internal/fault"
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
// unsealed active segment.
type tenantSegs struct {
	ns    string
	dir   string
	segs  []*segment
	idx   map[string]rowRef
	cache map[string]*Result

	active    *os.File // nil until the first Put after open/seal
	activeSeg *segment
	activeLen int64
	// Net effect of the active segment so far, for its eventual footer.
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
	t := &tenantSegs{
		ns:    ns,
		dir:   filepath.Join(s.root, tenantDir(ns)),
		idx:   make(map[string]rowRef),
		cache: make(map[string]*Result),
	}
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
		return nil
	}
	live, dead, n, err := scanSegment(seg.path)
	if err != nil {
		return err
	}
	t.applyNet(seg, live, deadKeys(dead))
	t.rows += n
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
// effect (live key offsets, net-deleted keys) plus its data row count.
func scanSegment(path string) (live map[string]int64, dead map[string]bool, rows int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()
	live = make(map[string]int64)
	dead = make(map[string]bool)
	rd := bufio.NewReaderSize(f, 64<<10)
	var off int64
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) == 0 && err != nil {
			if err == io.EOF {
				break
			}
			return nil, nil, 0, err
		}
		n := int64(len(line))
		trimmed := bytes.TrimRight(line, "\n")
		if len(trimmed) > 0 {
			var probe segProbe
			if jerr := json.Unmarshal(trimmed, &probe); jerr != nil {
				return nil, nil, 0, fmt.Errorf("offset %d: %w", off, jerr)
			}
			switch {
			case probe.Footer != 0:
				// A footer mid-file cannot happen in a well-formed segment;
				// treat it as a seal marker and stop (crash-truncated tail).
			case probe.Del != "":
				delete(live, probe.Del)
				dead[probe.Del] = true
			case probe.Scenario != "":
				key, kerr := rowKey(probe)
				if kerr != nil {
					return nil, nil, 0, fmt.Errorf("offset %d: %w", off, kerr)
				}
				rows++
				live[key] = off
				delete(dead, key)
			default:
				return nil, nil, 0, fmt.Errorf("offset %d: unrecognized segment line", off)
			}
		}
		off += n
		if err == io.EOF {
			break
		}
	}
	return live, dead, rows, nil
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
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for ns, t := range s.tenants {
		if ns == "" && len(t.idx) == 0 {
			continue
		}
		names = append(names, ns)
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

// tenant returns (creating on demand) the partition for ns. Caller holds
// s.mu.
func (s *SegmentedStore) tenantLocked(ns string) (*tenantSegs, error) {
	if !ValidTenant(ns) {
		return nil, fmt.Errorf("segmented store: invalid tenant namespace %q", ns)
	}
	t := s.tenants[ns]
	if t == nil {
		t = &tenantSegs{
			ns:    ns,
			dir:   filepath.Join(s.root, tenantDir(ns)),
			idx:   make(map[string]rowRef),
			cache: make(map[string]*Result),
		}
		s.tenants[ns] = t
	}
	return t, nil
}

// ensureActive opens (rotating first if needed) the tenant's active
// segment for appending. Caller holds s.mu.
func (s *SegmentedStore) ensureActive(t *tenantSegs) error {
	if t.active != nil {
		if t.activeLen < s.segMax {
			return nil
		}
		if err := s.sealLocked(t); err != nil {
			return err
		}
	}
	// Adopt an unsealed tail segment left by a previous process, so a
	// reopened store keeps appending instead of sprouting tiny segments. A
	// tail already at size is sealed in place and a fresh one opened.
	if n := len(t.segs); n > 0 && !t.segs[n-1].sealed {
		seg := t.segs[n-1]
		f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		alive, dead, _, err := scanSegment(seg.path)
		if err != nil {
			f.Close()
			return err
		}
		t.active, t.activeSeg, t.activeLen = f, seg, st.Size()
		t.activeLive, t.activeDead = alive, dead
		if st.Size() < s.segMax {
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
	f, err := os.OpenFile(seg.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	t.segs = append(t.segs, seg)
	t.active, t.activeSeg, t.activeLen = f, seg, 0
	t.activeLive = make(map[string]int64)
	t.activeDead = make(map[string]bool)
	return nil
}

// sealLocked writes the active segment's footer, fsyncs and closes it.
// Caller holds s.mu.
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
	data = append(data, '\n')
	if _, err := t.active.Write(data); err != nil {
		return err
	}
	if err := t.active.Sync(); err != nil {
		return err
	}
	if err := t.active.Close(); err != nil {
		return err
	}
	t.activeSeg.sealed = true
	t.active, t.activeSeg, t.activeLen = nil, nil, 0
	t.activeLive, t.activeDead = nil, nil
	return nil
}

func (s *SegmentedStore) put(ns string, r *Result) error {
	key := r.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("segmented store: closed")
	}
	t, err := s.tenantLocked(ns)
	if err != nil {
		return err
	}
	if _, dup := t.idx[key]; dup {
		return fmt.Errorf("campaign store: duplicate record for %q", key)
	}
	if err := s.ensureActive(t); err != nil {
		return fmt.Errorf("segmented store %s: %w", s.root, err)
	}
	off := t.activeLen
	var buf bytes.Buffer
	if err := writeRecord(&buf, r); err != nil {
		return err
	}
	if _, err := t.active.Write(buf.Bytes()); err != nil {
		// Best-effort truncate so a partial line never corrupts the segment.
		t.active.Truncate(off)
		return fmt.Errorf("segmented store %s: %w", s.root, err)
	}
	if s.fsync {
		if err := t.active.Sync(); err != nil {
			return fmt.Errorf("segmented store %s: %w", s.root, err)
		}
	}
	t.activeLen += int64(buf.Len())
	t.activeLive[key] = off
	delete(t.activeDead, key)
	t.idx[key] = rowRef{seg: t.activeSeg, off: off}
	t.cache[key] = r
	t.rows++
	s.maybeCompactLocked(t)
	return nil
}

func (s *SegmentedStore) delete(ns, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("segmented store: closed")
	}
	t, err := s.tenantLocked(ns)
	if err != nil {
		return err
	}
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
	data = append(data, '\n')
	if _, err := t.active.Write(data); err != nil {
		t.active.Truncate(t.activeLen)
		return err
	}
	if s.fsync {
		if err := t.active.Sync(); err != nil {
			return err
		}
	}
	t.activeLen += int64(len(data))
	delete(t.activeLive, key)
	t.activeDead[key] = true
	delete(t.idx, key)
	delete(t.cache, key)
	s.maybeCompactLocked(t)
	return nil
}

func (s *SegmentedStore) get(ns, key string) (*Result, bool) {
	s.mu.Lock()
	t := s.tenants[ns]
	if t == nil {
		s.mu.Unlock()
		return nil, false
	}
	if r, ok := t.cache[key]; ok {
		s.mu.Unlock()
		return r, true
	}
	ref, ok := t.idx[key]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	r, err := loadRow(ref)
	if err != nil {
		return nil, false
	}
	s.mu.Lock()
	// The slot may have been deleted or re-put while unlocked; only cache
	// when the index still points at the row we read.
	if cur, ok2 := t.idx[key]; ok2 && cur == ref {
		t.cache[key] = r
	}
	s.mu.Unlock()
	return r, true
}

// loadRow reads and decodes one row at a segment offset.
func loadRow(ref rowRef) (*Result, error) {
	f, err := os.Open(ref.seg.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(ref.off, io.SeekStart); err != nil {
		return nil, err
	}
	rd := bufio.NewReaderSize(f, 64<<10)
	line, err := rd.ReadBytes('\n')
	if err != nil && err != io.EOF {
		return nil, err
	}
	return decodeRecordLine(bytes.TrimRight(line, "\n"))
}

func (s *SegmentedStore) keys(ns string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[ns]
	if t == nil {
		return nil
	}
	keys := make([]string, 0, len(t.idx))
	for k := range t.idx {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (s *SegmentedStore) query(ns string, q Query) []*Result {
	var out []*Result
	for _, k := range s.keys(ns) {
		// Identity predicates resolve from the key alone — no row load for
		// campaigns the query filters out.
		if sc, d, err := ParseKey(k); err == nil && !q.Matches(sc, d) {
			continue
		}
		if r, ok := s.get(ns, k); ok && q.MatchesResult(r) {
			out = append(out, r)
		}
	}
	return out
}

// Garbage returns the superseded (deleted or overwritten) row count of one
// namespace — the rows a compaction pass would drop.
func (s *SegmentedStore) Garbage(ns string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[ns]
	if t == nil {
		return 0
	}
	return t.rows - len(t.idx)
}

// Segments returns how many on-disk segments one namespace currently has.
func (s *SegmentedStore) Segments(ns string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[ns]
	if t == nil {
		return 0
	}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked(ns)
}

func (s *SegmentedStore) compactLocked(ns string) error {
	t := s.tenants[ns]
	if t == nil || len(t.segs) == 0 {
		return nil
	}
	if err := s.sealLocked(t); err != nil {
		return err
	}
	keys := make([]string, 0, len(t.idx))
	for k := range t.idx {
		keys = append(keys, k)
	}
	sort.Strings(keys)
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
	for _, k := range keys {
		line, err := rawRow(t.idx[k])
		if err != nil {
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
	t.rows = rows
	newIdx := make(map[string]rowRef, rows)
	for k, o := range foot.Live {
		newIdx[k] = rowRef{seg: merged, off: o}
	}
	t.idx = newIdx
	return nil
}

// rawRow reads one row's raw line bytes (newline included) from its
// segment — compaction copies bytes, never re-marshals.
func rawRow(ref rowRef) ([]byte, error) {
	f, err := os.Open(ref.seg.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(ref.off, io.SeekStart); err != nil {
		return nil, err
	}
	rd := bufio.NewReaderSize(f, 64<<10)
	line, err := rd.ReadBytes('\n')
	if err == io.EOF && len(line) > 0 {
		line = append(line, '\n')
		err = nil
	}
	return line, err
}

// maybeCompactLocked queues a background compaction when the namespace's
// garbage crosses the CompactAfter threshold. Caller holds s.mu.
func (s *SegmentedStore) maybeCompactLocked(t *tenantSegs) {
	if s.compact <= 0 || s.compactQ == nil {
		return
	}
	if t.rows-len(t.idx) < s.compact {
		return
	}
	select {
	case s.compactQ <- t.ns:
	default: // a pass is already queued; it will observe the garbage
	}
}

// compactLoop is the background compaction worker. It owns its end of the
// queue as an argument: Close nils the s.compactQ field under s.mu, and a
// goroutine first scheduled after that would range over a nil channel
// forever while Close waits on s.wg.
func (s *SegmentedStore) compactLoop(q <-chan string) {
	defer s.wg.Done()
	for ns := range q {
		s.mu.Lock()
		if !s.closed {
			s.compactLocked(ns)
		}
		s.mu.Unlock()
	}
}

// Sync fsyncs every active segment — the graceful-shutdown barrier before
// a resume hint is printed.
func (s *SegmentedStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, t := range s.tenants {
		if t.active != nil {
			if err := t.active.Sync(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Close syncs and closes every active segment and stops the background
// compactor. The in-memory index stays readable; further writes fail.
func (s *SegmentedStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	q := s.compactQ
	s.compactQ = nil
	var first error
	for _, t := range s.tenants {
		if t.active != nil {
			if err := t.active.Sync(); err != nil && first == nil {
				first = err
			}
			if err := t.active.Close(); err != nil && first == nil {
				first = err
			}
			t.active = nil
		}
	}
	s.mu.Unlock()
	if q != nil {
		close(q)
		s.wg.Wait()
	}
	return first
}
