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

// ValidateJobs checks that no campaign key appears twice in one matrix. A
// key is a store identity: the second copy could only fail at Put after
// burning a full campaign of simulation, so the engine and the
// distributed coordinator both refuse the matrix up front.
func ValidateJobs(jobs []ScenarioJob) error {
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
