package flex

import (
	"flex/internal/power"
)

// Power and topology types.
type (
	// Watts is electrical power in watts.
	Watts = power.Watts
	// Redundancy is an xN/y distributed-redundancy design.
	Redundancy = power.Redundancy
	// Topology is a room's electrical topology (UPSes and PDU-pairs).
	Topology = power.Topology
	// UPSID identifies a UPS within a topology.
	UPSID = power.UPSID
)

// Power unit constants.
const (
	KW = power.KW
	MW = power.MW
)

// FlexLatencyBudget is the 10-second end-to-end deadline for Flex-Online.
const FlexLatencyBudget = power.FlexLatencyBudget
