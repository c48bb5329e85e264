package flex

import (
	"io"
	"math/rand"

	"flex/internal/workload"
)

// Workload types.
type (
	// Category classifies a workload's tolerance to corrective actions.
	Category = workload.Category
	// Deployment is one unbreakable server deployment request.
	Deployment = workload.Deployment
	// TraceConfig parameterizes the synthetic demand generator.
	TraceConfig = workload.TraceConfig
)

// Workload categories.
const (
	SoftwareRedundant      = workload.SoftwareRedundant
	NonRedundantCapable    = workload.NonRedundantCapable
	NonRedundantNonCapable = workload.NonRedundantNonCapable
)

// DefaultTraceConfig returns the paper's §V-A demand configuration for a
// room with the given provisioned power.
func DefaultTraceConfig(provisioned Watts) TraceConfig {
	return workload.DefaultTraceConfig(provisioned)
}

// GenerateTrace produces a synthetic short-term-demand trace.
func GenerateTrace(cfg TraceConfig, seed int64) ([]Deployment, error) {
	return workload.GenerateTrace(cfg, rand.New(rand.NewSource(seed)))
}

// ShuffleTrace permutes a trace (the paper evaluates 10 shuffles).
func ShuffleTrace(trace []Deployment, seed int64) []Deployment {
	return workload.Shuffle(trace, rand.New(rand.NewSource(seed)))
}

// WriteTrace / ReadTrace serialize demand traces as JSON.
func WriteTrace(w io.Writer, trace []Deployment) error { return workload.WriteTrace(w, trace) }
func ReadTrace(r io.Reader) ([]Deployment, error)      { return workload.ReadTrace(r) }
