// The unit of a campaign matrix: one (scenario, fault domain, seed) job.
package campaign

import (
	"fmt"

	"serfi/internal/fault"
	"serfi/internal/npb"
)

// DefaultJobSize groups this many faults into one injection task (the paper
// batches simulations per HPC job to amortize scheduling).
const DefaultJobSize = 8

// ScenarioJob pairs one scenario with its fault domain and fault-list
// seed. Seeds are the caller's responsibility so that a subset run, a
// resumed run and a full matrix all draw identical fault lists for the
// same (scenario, domain) pair (Engine.JobsFor encodes the convention);
// the zero Domain is the paper's register single-bit-upset model.
type ScenarioJob struct {
	Scenario npb.Scenario
	Domain   fault.Model
	Seed     int64
}

// Key returns the job's database identity.
func (j ScenarioJob) Key() string { return Key(j.Scenario, j.Domain) }

// ValidateJobs checks a matrix before anything runs or any file changes:
// the fault count must not be negative, and no campaign key may appear
// twice. A key is a store identity: the second copy could only fail at Put
// after burning a full campaign of simulation. The engine, the distributed
// coordinator and OpenMatrixStore all refuse through this one check.
func ValidateJobs(jobs []ScenarioJob, faults int) error {
	if faults < 0 {
		return fmt.Errorf("negative fault count %d", faults)
	}
	seen := make(map[string]bool, len(jobs))
	for _, job := range jobs {
		key := job.Key()
		if seen[key] {
			return fmt.Errorf("%s appears more than once in the matrix (a key names one campaign; drop the duplicate)", key)
		}
		seen[key] = true
	}
	return nil
}
