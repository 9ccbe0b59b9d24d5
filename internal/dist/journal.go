// The submission journal: a tiny append-only JSONL log of queue
// operations (submit, cancel) that makes a coordinator's queue survive
// restarts. On startup RestoreQueue replays the journal against a fresh
// queue; campaigns whose rows the store already holds are answered from it
// (the ordinary resume path), so a restart loses at most the in-flight
// shards — never an assembled campaign, and never the queue itself.
//
// The journal records intent, not progress: one line per accepted
// submission or cancellation, fsynced before the operation is
// acknowledged. Result durability belongs to the store; the journal only
// has to remember what was asked for.
package dist

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/jsonl"
	"serfi/internal/npb"
)

// JournalEntry is one queue operation on disk.
type JournalEntry struct {
	Op         string    `json:"op"` // "submit" | "cancel"
	ID         string    `json:"id"`
	Tenant     string    `json:"tenant,omitempty"`
	Faults     int       `json:"faults,omitempty"`
	TraceProp  bool      `json:"trace_prop,omitempty"`
	RecordRuns bool      `json:"record_runs,omitempty"`
	Jobs       []WireJob `json:"jobs,omitempty"`
}

// Journal is an append-only, fsync-on-append log of queue operations.
type Journal struct {
	mu  sync.Mutex
	log *jsonl.Log
}

// openLog opens the journal's file. A variable so that tests can put a
// failing file under a journal.
var openLog = jsonl.Open

// OpenJournal opens (or creates) the journal at path for appending, after
// the operations it already holds.
func OpenJournal(path string) (*Journal, error) {
	_, n, err := ReadJournal(path)
	if err != nil {
		return nil, err
	}
	log, err := openLog(path, n, true)
	if err != nil {
		return nil, err
	}
	return &Journal{log: log}, nil
}

// Append writes one entry and fsyncs before returning, so an acknowledged
// queue operation survives a crash; one that failed leaves no bytes behind.
func (j *Journal) Append(e JournalEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err = j.log.Append(data)
	return err
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}

// ReadJournal loads every entry from path, in append order, and the length
// of the lines that hold them. A missing file is an empty journal, not an
// error — the first boot of a fresh queue. The journal is the service's own
// file and an operation is acknowledged only once its line and newline are
// on disk, so what follows the last newline is an operation nobody was told
// succeeded: it is dropped, and cut when the journal is opened at n.
func ReadJournal(path string) (entries []JournalEntry, n int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	line := 0
	n, _, err = jsonl.Scan(f, func(_ int64, b []byte) error {
		line++
		if len(b) == 0 {
			return nil
		}
		var e JournalEntry
		if err := json.Unmarshal(b, &e); err != nil {
			return fmt.Errorf("dist journal line %d: %w", line, err)
		}
		entries = append(entries, e)
		return nil
	})
	return entries, n, err
}

// PendingSubmissions folds a journal down to the submissions still wanted:
// every submit entry minus the later-cancelled ones, submission order
// preserved. Completed submissions stay in the list — on replay their
// campaigns are answered from the store and the submission retires
// instantly, which is exactly the bookkeeping a restarted queue needs.
func PendingSubmissions(entries []JournalEntry) []JournalEntry {
	cancelled := make(map[string]bool)
	for _, e := range entries {
		if e.Op == "cancel" {
			cancelled[e.ID] = true
		}
	}
	var out []JournalEntry
	for _, e := range entries {
		if e.Op == "submit" && !cancelled[e.ID] {
			out = append(out, e)
		}
	}
	return out
}

// RestoreQueue builds a durable queue from the journal at path: replays
// every still-wanted submission against a fresh NewQueue (store-recorded
// campaigns are answered immediately; unfinished ones become pending
// shards again), then attaches the journal: from here on every accepted
// submission and cancellation is appended (and fsynced) before it is
// acknowledged. Replayed submissions are NOT re-appended — the journal
// already holds them. The caller owns the returned journal and should
// Close it on shutdown.
func RestoreQueue(path string, opts ...CoordOption) (*Coordinator, *Journal, error) {
	entries, n, err := ReadJournal(path)
	if err != nil {
		return nil, nil, err
	}
	c := NewQueue(opts...)
	maxSeq := 0
	for _, e := range entries {
		// Sequential IDs resume past everything ever journalled, including
		// cancelled submissions, so a recycled ID can never collide.
		if n, err := strconv.Atoi(strings.TrimPrefix(e.ID, "m")); err == nil && n > maxSeq {
			maxSeq = n
		}
	}
	for _, e := range PendingSubmissions(entries) {
		jobs, err := jobsFromWire(e.Jobs)
		if err != nil {
			return nil, nil, fmt.Errorf("dist journal %s: %w", e.ID, err)
		}
		if _, err := c.enqueue(SubmitSpec{
			ID:         e.ID,
			Tenant:     e.Tenant,
			Jobs:       jobs,
			Faults:     e.Faults,
			TraceProp:  e.TraceProp,
			RecordRuns: e.RecordRuns,
		}); err != nil {
			return nil, nil, fmt.Errorf("dist journal %s: %w", e.ID, err)
		}
	}
	log, err := openLog(path, n, true) // at the length just read: a torn tail is cut here
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{log: log}
	c.mu.Lock()
	c.nextSeq = max(c.nextSeq, maxSeq)
	c.journal = j
	c.mu.Unlock()
	return c, j, nil
}

// WireJobs encodes scenario jobs for a SubmitRequest — the client-side
// half of the wire encoding the journal shares.
func WireJobs(jobs []campaign.ScenarioJob) []WireJob { return wireFromJobs(jobs) }

// wireFromJobs encodes scenario jobs for the journal and the submit wire
// message.
func wireFromJobs(jobs []campaign.ScenarioJob) []WireJob {
	out := make([]WireJob, len(jobs))
	for i, job := range jobs {
		out[i] = WireJob{Scenario: job.Scenario.ID(), Domain: job.Domain.String(), Seed: job.Seed}
	}
	return out
}

// jobsFromWire decodes the wire encoding back to scenario jobs.
func jobsFromWire(jobs []WireJob) ([]campaign.ScenarioJob, error) {
	out := make([]campaign.ScenarioJob, len(jobs))
	for i, wj := range jobs {
		sc, err := npb.ParseID(wj.Scenario)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		d := fault.Reg
		if wj.Domain != "" {
			if d, err = fault.ParseModel(wj.Domain); err != nil {
				return nil, fmt.Errorf("job %d: %w", i, err)
			}
		}
		out[i] = campaign.ScenarioJob{Scenario: sc, Domain: d, Seed: wj.Seed}
	}
	return out, nil
}
