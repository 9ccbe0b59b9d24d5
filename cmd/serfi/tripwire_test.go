package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDeletedNamesStayGone: what a simplification deleted stays deleted.
// Each row is a pattern, the repository files it must not match a line of
// and what replaced the deleted code. This file names every pattern, so it
// is not scanned.
func TestDeletedNamesStayGone(t *testing.T) {
	t.Parallel()
	const self = "cmd/serfi/tripwire_test.go"
	var (
		goCode = func(p string) bool { return strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") }
		docs   = func(p string) bool {
			return p == "README.md" || p == "DESIGN.md" || p == ".claude/skills/verify/SKILL.md"
		}
		// The other root documents record what changed, so they may name
		// what was deleted.
		records = func(p string) bool {
			switch p {
			case "README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "PAPERS.md", "SNIPPETS.md":
				return false
			}
			return !strings.Contains(p, "/") && strings.HasSuffix(p, ".md")
		}
		bench    = func(p string) bool { return strings.HasPrefix(p, "bench/") }
		markdown = func(p string) bool { return strings.HasSuffix(p, ".md") }
		snapCode = func(p string) bool {
			return goCode(p) && (strings.HasPrefix(p, "internal/mem/") || strings.HasPrefix(p, "internal/mach/"))
		}
	)
	const shared = "a snapshot shares its pages with the machine, copied on first write (DESIGN.md §3.2): "
	rows := []struct {
		pattern string
		in      func(path string) bool
		except  string // a line holding this is no hit
		reason  string
	}{
		{`ckptspill|CheckpointSpill|SpillDir`,
			func(p string) bool { return (strings.HasSuffix(p, ".go") || markdown(p)) && !records(p) }, "",
			"checkpoint spill is gone (DESIGN.md §3.2)"},
		// Tests may name the feed: TestDashboard pins that it answers 404.
		{`internal/softfp|/dash/events`,
			func(p string) bool { return (goCode(p) || markdown(p)) && !records(p) }, "",
			"internal/softfp (the contract is in internal/glib/softfloat.go) and /dash/events (the dashboard polls) are gone"},
		{`\b(JobSpans|MinVersion|HasProp)\b`, goCode, "",
			"Result.JobSpans (spans never overlap: ExclusiveCompute is GoldenWallSec + JobWallSec) and Query.MinVersion/HasProp are gone"},
		{`\b(JobSpan|CoverageCount|MergeJobSpans)\b`, goCode, "",
			"the Collector reads JobDone.Done, the count the fold and the lease table keep; JobSpan/CoverageCount/MergeJobSpans are gone"},
		{`case "(trace|stats|profile)"`, func(p string) bool { return p == "cmd/serfi/main.go" }, "",
			"serfi trace is serfi inject -chrome-trace, serfi stats is serfi golden -o and serfi profile is serfi golden"},
		// Every campaign writes its per-fault rows. bench/ still names the
		// three ignored declarations (campaign.RecordRuns, Result.RecordRuns,
		// SubmitRequest.RecordRuns); nothing else may set or read them.
		{`record-runs`,
			func(p string) bool { return strings.HasPrefix(p, "cmd/") || docs(p) || p == "EXPERIMENTS.md" }, "",
			"every campaign records its runs: the record-runs switch is gone"},
		{`\.RecordRuns\b|\bRecordRuns:`, func(p string) bool { return goCode(p) && !bench(p) }, "",
			"every campaign records its runs: the record-runs switch is gone"},
		// campaign.Group is the one place a scenario runs fault-free: `serfi
		// sens` and `serfi golden` read a group, and sens.Context is gone.
		{`RunGoldenContext\(|fi\.RunGolden\(|SampleResidency\(`,
			func(p string) bool {
				return goCode(p) && p != "internal/campaign/group.go" && !bench(p) &&
					!strings.HasPrefix(p, "internal/fi/") && !strings.HasPrefix(p, "internal/profile/")
			}, "",
			"campaign.Group runs a scenario's golden pass and residency walk (DESIGN.md §5)"},
		{`sens\.NewContext`, func(p string) bool { return strings.HasSuffix(p, ".go") }, "",
			"campaign.Group runs a scenario's golden pass and residency walk (DESIGN.md §5)"},
		// One meaning per setting: the checkpoint count is fi's everywhere
		// (n <= 0 none, no CLI translation), and settings nothing but tests
		// set are gone from the product.
		{`\bsnapshotCount\b|\bNoRegLocals\b|\bHeapBytes\b|"jobsize"`, goCode, "",
			"snapshotCount, cc.Program.NoRegLocals, cc.LinkConfig.HeapBytes and the -jobsize flag are gone"},
		{`^type [A-Z][A-Za-z0-9]*Domain\b`,
			func(p string) bool { return filepath.Dir(p) == "internal/fault" && strings.HasSuffix(p, ".go") }, "",
			"internal/fault exports only the Domain interface; fault.New builds the unexported domain types"},
		// CheckpointSet.InjectPointContext is the one injection path; a set
		// with no checkpoints is the rule-free from-reset reference. Tests
		// may name the deleted engine to say what replaced it.
		{`\b(FullCopy|fullCopy|FullCopySnapshots|InjectDomain)\b|\bbuildGroup\(`,
			func(p string) bool { return goCode(p) || docs(p) }, "",
			"the full-copy checkpoint engine, fi.InjectDomain and campaign.buildGroup are gone (an empty fi.CheckpointSet runs from reset)"},
		// bench/ is not checked: it changes only together with BENCHMARK.json.
		{`\b(MemStore|NewMemStore|FileStoreOption|recordVersionProp)\b|\bcampaign\.Fsync\b|\bFsync\(\)`,
			func(p string) bool { return goCode(p) && !bench(p) || docs(p) }, "",
			"MemStore, the FileStore Fsync option and the pre-v4 row versions are gone (every store is on disk and syncs each append; every row is v4)"},
		// jsonl.Log fsyncs every append and nothing can ask for less.
		// SegmentSync is an ignored option kept for bench/, so only its
		// declaration may name it outside bench/.
		{`\bSegmentSync\(`, func(p string) bool { return goCode(p) && !bench(p) }, "func SegmentSync()",
			"every jsonl.Log append is synced: SegmentSync is ignored"},
		{`func \(l \*Log\) Sync\b|func \(s \*SegmentedStore\) Sync\b`, goCode, "",
			"every jsonl.Log append is synced: Log.Sync and SegmentedStore.Sync are gone"},
		// A shard's completion is its progress: the worker posts no beat and
		// the coordinator keeps no beat count. /v1/events is an ignored
		// handler kept for bench/, which is not checked.
		{`serfi_dist_beats|\bbeatsStale\b|\.beats\b`, func(p string) bool { return goCode(p) && !bench(p) }, "",
			"progress beats are ignored (a shard's completion is its progress): serfi_dist_beats*, beatsStale and the .beats fields are gone"},
		{`serfi_dist_beats`, docs, "",
			"progress beats are ignored (a shard's completion is its progress): serfi_dist_beats*, beatsStale and the .beats fields are gone"},
		// exp.Artefacts is the one list of the paper's artefacts and of the
		// scenarios each runs.
		{`func onIS\b|\bartefacts\s*:?=\s*map\[`,
			func(p string) bool { return goCode(p) && strings.HasPrefix(p, "cmd/serfi/") }, "",
			"serfi experiments looks -run up in exp.Artefacts: its artefacts map and onIS are gone"},
		{`func Benchmark(Table[1-4]|Figure[1-3])\b`, func(p string) bool { return p == "bench_test.go" }, "",
			"BenchmarkArtefacts runs one sub-benchmark per exp.Artefacts entry: the per-artefact benchmarks are gone"},
		{`func Squash\b`, snapCode, "", shared + "dropping a checkpoint candidate is dropping it, mem.Squash and mach.Squash are gone"},
		{`\bDeltaOf\b`, snapCode, "", shared + "every run classifies against Golden.Final, Snapshot.DeltaOf is gone"},
		{`\bRebase\b`, snapCode, "", shared + "there is no tracking base to move, Memory.Rebase is gone"},
		{`\bcommonAncestor\b`, snapCode, "", shared + "a compare skips the pages both sides share, the chain ancestor walk is gone"},
		{`\bmaterializeInto\b`, snapCode, "", shared + "a restore repoints the pages that differ, the chain-walking full restore is gone"},
		{`\bParent\(\)|\bDepth\(\)|\bChainBytes\b`, snapCode, "", shared + "snapshots form no chain, Parent/Depth/ChainBytes are gone (mem.Bytes counts shared pages once)"},
		// Config.Profile is the one switch of a golden machine, and no
		// snapshot carries a golden record.
		{`\bKeepRecords\b`, func(p string) bool { return strings.HasSuffix(p, ".go") || docs(p) }, "",
			"mach.New starts every golden record when Config.Profile is set: Machine.KeepRecords is gone"},
		{`\b(copyCounts|callCounts|sampleLeft)\b`,
			func(p string) bool { return goCode(p) && strings.HasPrefix(p, "internal/mach/") }, "",
			"no snapshot carries a golden record: the profile tables left Snapshot and Restore"},
		// The non-Context twins are gone; their callers pass
		// context.Background().
		{`func RunGolden\(`, func(p string) bool { return strings.HasSuffix(p, ".go") }, "",
			"fi.RunGolden is gone: call fi.RunGoldenContext"},
		{`\.InjectPoint\(|\) InjectPoint\(`, func(p string) bool { return strings.HasSuffix(p, ".go") }, "",
			"CheckpointSet.InjectPoint is gone: call InjectPointContext"},
		{`O_APPEND`,
			func(p string) bool {
				return goCode(p) && strings.HasPrefix(p, "internal/") && !strings.HasPrefix(p, "internal/jsonl/")
			}, "",
			"internal/jsonl is the one place a durable file is opened for appending (DESIGN.md Durability)"},
	}

	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "examples")); err == nil {
		t.Error("examples/ is gone: each former example is one serfi command (README Examples)")
	}
	res := make([]*regexp.Regexp, len(rows))
	for i, row := range rows {
		res[i] = regexp.MustCompile(row.pattern)
	}
	hits := make([][]string, len(rows))
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == self {
			return nil
		}
		var lines []string
		for i, row := range rows {
			if !row.in(rel) {
				continue
			}
			if lines == nil {
				b, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				lines = strings.Split(string(b), "\n")
			}
			for n, line := range lines {
				if res[i].MatchString(line) && (row.except == "" || !strings.Contains(line, row.except)) {
					hits[i] = append(hits[i], rel+":"+strconv.Itoa(n+1))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if len(hits[i]) > 0 {
			t.Errorf("%s; /%s/ still matches in: %s", row.reason, row.pattern, strings.Join(hits[i], " "))
		}
	}
}
