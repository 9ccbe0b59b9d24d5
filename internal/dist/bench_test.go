package dist

// BenchmarkDistLoopback vs BenchmarkEngineMatrix: the same campaign matrix
// through the distributed fabric (coordinator + loopback workers, full wire
// marshal path) and through the local engine. The difference in ns/inject
// is the wire protocol's per-injection overhead; the benchmark harness
// measures the same pair as work_per_s on inject_deep vs inject_queue
// (bench/README.md). Scale faults with SERFI_FAULTS like the root benchmarks.

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/fault"
	"serfi/internal/npb"
)

func benchFaults() int {
	if env := os.Getenv("SERFI_FAULTS"); env != "" {
		if v, err := strconv.Atoi(env); err == nil && v > 0 {
			return v
		}
	}
	return 8
}

func benchJobs() []campaign.ScenarioJob {
	return []campaign.ScenarioJob{
		{Scenario: npb.Scenario{App: "IS", Mode: npb.Serial, ISA: "armv8", Cores: 1}, Domain: fault.Reg, Seed: 5},
	}
}

// BenchmarkEngineMatrix is the single-process baseline: one engine run over
// the bench matrix.
func BenchmarkEngineMatrix(b *testing.B) {
	jobs, n := benchJobs(), benchFaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := campaign.New(campaign.Faults(n)).RunMatrix(context.Background(), jobs)
		if err != nil {
			b.Fatal(err)
		}
		if results[0].Counts.Total() != n {
			b.Fatal("missing classifications")
		}
	}
	b.StopTimer()
	perInject(b, len(jobs)*n)
}

// BenchmarkDistLoopback runs the identical matrix through a coordinator and
// one loopback worker with the same parallelism the engine defaults to —
// every lease, completion and progress beat pays the full JSON round trip.
func BenchmarkDistLoopback(b *testing.B) {
	jobs, n := benchJobs(), benchFaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coord, err := NewCoordinator(jobs, n, ShardSize(2))
		if err != nil {
			b.Fatal(err)
		}
		w := NewWorker(NewLoopbackClient(coord.Handler()), Parallel(runtime.GOMAXPROCS(0)))
		werr := make(chan error, 1)
		go func() { werr <- w.Run(context.Background()) }()
		results, err := coord.Wait(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if err := <-werr; err != nil {
			b.Fatal(err)
		}
		if results[0].Counts.Total() != n {
			b.Fatal("missing classifications")
		}
	}
	b.StopTimer()
	perInject(b, len(jobs)*n)
}

// perInject reports wall time per injection, the number both benchmarks are
// compared on.
func perInject(b *testing.B, injectionsPerIter int) {
	total := float64(b.N * injectionsPerIter)
	if total > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/inject")
	}
}
