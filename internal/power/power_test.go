package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRedundancyValidate(t *testing.T) {
	cases := []struct {
		r  Redundancy
		ok bool
	}{
		{Redundancy{4, 3}, true},
		{Redundancy{2, 1}, true},
		{Redundancy{5, 4}, true},
		{Redundancy{3, 3}, false},
		{Redundancy{3, 4}, false},
		{Redundancy{1, 0}, false},
		{Redundancy{0, 0}, false},
	}
	for _, c := range cases {
		err := c.r.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v) err=%v, want ok=%v", c.r, err, c.ok)
		}
	}
}

func TestRedundancyFractions4N3(t *testing.T) {
	r := Redundancy{X: 4, Y: 3}
	if got := r.AllocationLimitFraction(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("AllocationLimitFraction = %v, want 0.75", got)
	}
	if got := r.ReservedFraction(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("ReservedFraction = %v, want 0.25", got)
	}
	// The paper's headline: 33% more servers for 4N/3.
	if got := r.ExtraServersFraction(); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("ExtraServersFraction = %v, want 1/3", got)
	}
	// Worst-case failover load is 133% of UPS rating.
	if got := r.WorstCaseFailoverFraction(); math.Abs(got-4.0/3.0) > 1e-12 {
		t.Errorf("WorstCaseFailoverFraction = %v, want 4/3", got)
	}
}

func TestRedundancyString(t *testing.T) {
	if s := (Redundancy{4, 3}).String(); s != "4N/3" {
		t.Errorf("String = %q, want 4N/3", s)
	}
}

func TestWattsString(t *testing.T) {
	cases := []struct {
		w    Watts
		want string
	}{
		{500, "500W"},
		{14.4 * KW, "14.4kW"},
		{1.2 * MW, "1.20MW"},
		{9.6 * MW, "9.60MW"},
	}
	for _, c := range cases {
		if got := c.w.String(); got != c.want {
			t.Errorf("(%v).String() = %q, want %q", float64(c.w), got, c.want)
		}
	}
}

// fourN3Room builds the paper's standard 9.6MW 4N/3 room: 4 × 2.4MW UPSes.
func fourN3Room(t *testing.T, pairsPerCombo int) *Topology {
	t.Helper()
	topo, err := NewRoom(RoomConfig{
		Design:              Redundancy{X: 4, Y: 3},
		UPSCapacity:         2.4 * MW,
		PairsPerCombination: pairsPerCombo,
	})
	if err != nil {
		t.Fatalf("NewRoom: %v", err)
	}
	return topo
}

func TestNewRoom4N3Shape(t *testing.T) {
	topo := fourN3Room(t, 1)
	if len(topo.UPSes) != 4 {
		t.Fatalf("UPSes = %d, want 4", len(topo.UPSes))
	}
	if len(topo.Pairs) != 6 { // C(4,2)
		t.Fatalf("Pairs = %d, want 6", len(topo.Pairs))
	}
	if got := topo.ProvisionedPower(); got != 9.6*MW {
		t.Fatalf("ProvisionedPower = %v, want 9.6MW", got)
	}
	if got := topo.ConventionalAllocatablePower(); got != 7.2*MW {
		t.Fatalf("ConventionalAllocatablePower = %v, want 7.2MW", got)
	}
	// Every UPS feeds exactly x-1 = 3 pairs.
	feeds := make([]int, len(topo.UPSes))
	for _, p := range topo.Pairs {
		feeds[p.UPSes[0]]++
		feeds[p.UPSes[1]]++
	}
	for u, got := range feeds {
		if got != 3 {
			t.Errorf("UPS %d feeds %d pairs, want 3", u, got)
		}
	}
	if got := conventionalLimits(topo)[0]; got != 1.8*MW {
		t.Errorf("conventional limit = %v, want 1.8MW", got)
	}
}

func TestNewRoomValidation(t *testing.T) {
	if _, err := NewRoom(RoomConfig{Design: Redundancy{3, 3}, UPSCapacity: MW, PairsPerCombination: 1}); err == nil {
		t.Error("expected error for invalid design")
	}
	if _, err := NewRoom(RoomConfig{Design: Redundancy{4, 3}, UPSCapacity: 0, PairsPerCombination: 1}); err == nil {
		t.Error("expected error for zero capacity")
	}
	if _, err := NewRoom(RoomConfig{Design: Redundancy{4, 3}, UPSCapacity: MW, PairsPerCombination: 0}); err == nil {
		t.Error("expected error for zero pairs per combination")
	}
}

func TestNewCustomTopologyValidation(t *testing.T) {
	ups := []UPS{{ID: 0, Name: "a", Capacity: MW}, {ID: 1, Name: "b", Capacity: MW}}
	if _, err := NewCustomTopology(Redundancy{2, 1}, ups,
		[]PDUPair{{ID: 0, UPSes: [2]UPSID{0, 0}}}); err == nil {
		t.Error("expected error for self-pair")
	}
	if _, err := NewCustomTopology(Redundancy{2, 1}, ups,
		[]PDUPair{{ID: 0, UPSes: [2]UPSID{0, 5}}}); err == nil {
		t.Error("expected error for unknown UPS")
	}
	if _, err := NewCustomTopology(Redundancy{2, 1}, ups[:1], nil); err == nil {
		t.Error("expected error for wrong UPS count")
	}
	if _, err := NewCustomTopology(Redundancy{2, 1}, ups,
		[]PDUPair{{ID: 7, UPSes: [2]UPSID{0, 1}}}); err == nil {
		t.Error("expected error for non-dense pair IDs")
	}
	ok := []PDUPair{{ID: 0, UPSes: [2]UPSID{0, 1}}}
	if _, err := NewCustomTopology(Redundancy{2, 1}, ups, ok); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
}

// TestPartnerUPS: when one of a pair's UPSes fails, its partner carries
// the pair's whole load.
func TestPartnerUPS(t *testing.T) {
	topo := fourN3Room(t, 1)
	p := topo.Pairs[0] // UPSes {0,1}
	load := NewPairLoad(topo)
	load[p.ID] = MW
	for i, failed := range p.UPSes {
		partner := p.UPSes[1-i]
		if got := topo.FailoverLoads(load, failed)[partner]; got != MW {
			t.Errorf("UPS %d out: partner %d carries %v, want 1MW", failed, partner, got)
		}
	}
}

func TestUPSLoadsUniform(t *testing.T) {
	topo := fourN3Room(t, 1)
	// Load every pair with 1MW: each UPS feeds 3 pairs at half each = 1.5MW.
	load := NewPairLoad(topo)
	for i := range load {
		load[i] = MW
	}
	for u, w := range topo.UPSLoads(load) {
		if math.Abs(float64(w-1.5*MW)) > 1 {
			t.Errorf("UPS %d load = %v, want 1.5MW", u, w)
		}
	}
}

func TestFailoverLoadsTransfer(t *testing.T) {
	topo := fourN3Room(t, 1)
	load := NewPairLoad(topo)
	for i := range load {
		load[i] = MW
	}
	loads := topo.FailoverLoads(load, 0)
	if loads[0] != 0 {
		t.Fatalf("failed UPS load = %v, want 0", loads[0])
	}
	// Each survivor previously had 1.5MW; it gains the other half (0.5MW)
	// of the single pair it shared with UPS 0 → 2.0MW.
	for u := 1; u < 4; u++ {
		if math.Abs(float64(loads[u]-2.0*MW)) > 1 {
			t.Errorf("survivor %d load = %v, want 2.0MW", u, loads[u])
		}
	}
	// Conservation: total survivor load equals total pair load.
	var sum Watts
	for _, w := range loads {
		sum += w
	}
	if math.Abs(float64(sum-load.Total())) > 1 {
		t.Errorf("failover total = %v, want %v", sum, load.Total())
	}
}

// Property: load is conserved under failover for arbitrary loads, and the
// worst-survivor fraction at full allocation approaches x/(x-1).
func TestFailoverConservationProperty(t *testing.T) {
	topo := fourN3Room(t, 2)
	f := func(raw []uint16, failedRaw uint8) bool {
		load := NewPairLoad(topo)
		for i := range load {
			if i < len(raw) {
				load[i] = Watts(raw[i]) * KW
			}
		}
		failed := UPSID(int(failedRaw) % len(topo.UPSes))
		loads := topo.FailoverLoads(load, failed)
		var sum Watts
		for _, w := range loads {
			sum += w
		}
		return math.Abs(float64(sum-load.Total())) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorstSurvivorLoadFractionAtFullAllocation(t *testing.T) {
	topo := fourN3Room(t, 1)
	// Allocate 100% of provisioned power uniformly: 9.6MW over 6 pairs.
	load := NewPairLoad(topo)
	for i := range load {
		load[i] = 9.6 * MW / 6
	}
	got := 0.0
	for f := range topo.UPSes {
		for u, w := range topo.FailoverLoads(load, UPSID(f)) {
			if u != f {
				got = math.Max(got, float64(w/topo.UPSes[u].Capacity))
			}
		}
	}
	if math.Abs(got-4.0/3.0) > 1e-9 {
		t.Fatalf("worst survivor fraction = %v, want 4/3", got)
	}
}

// TestNormalLimitChecks: Eq. 2 in the ledger under both normal-operation
// limits — the conventional capacity × y/x and Flex's full capacity.
func TestNormalLimitChecks(t *testing.T) {
	topo := fourN3Room(t, 1)
	within := func(limits []Watts, perPair Watts) bool {
		l := NewLedger(topo, limits)
		for _, p := range topo.Pairs {
			l.Add(p.UPSes[0], p.UPSes[1], perPair, perPair)
		}
		for u := range topo.UPSes {
			if l.NormalHeadroom(UPSID(u)) < -CapacityTolerance {
				return false
			}
		}
		return true
	}
	conventional := conventionalLimits(topo)
	// 7.2MW allocated uniformly = conventional limit exactly.
	if !within(conventional, 7.2*MW/6) {
		t.Error("7.2MW uniform should satisfy conventional limits")
	}
	if !within(nil, 7.2*MW/6) {
		t.Error("7.2MW uniform should satisfy capacity")
	}
	// 9.6MW uniform exceeds conventional limits but not capacity (Flex).
	if within(conventional, 9.6*MW/6) {
		t.Error("9.6MW uniform should violate conventional limits")
	}
	if !within(nil, 9.6*MW/6) {
		t.Error("9.6MW uniform should satisfy Flex capacity constraint")
	}
}

// conventionalLimits is every UPS's conventional allocation limit,
// capacity × y/x (paper §II-A).
func conventionalLimits(topo *Topology) []Watts {
	limits := make([]Watts, len(topo.UPSes))
	for u := range limits {
		limits[u] = Watts(float64(topo.UPSes[u].Capacity) * topo.Design.AllocationLimitFraction())
	}
	return limits
}

func TestFailoverWithinCapacity(t *testing.T) {
	topo := fourN3Room(t, 1)
	load := NewPairLoad(topo)
	for i := range load {
		load[i] = 7.2 * MW / 6 // conventional allocation survives failover
	}
	for f := 0; f < 4; f++ {
		if !topo.FailoverWithinCapacity(load, UPSID(f)) {
			t.Errorf("conventional allocation should survive failure of UPS %d", f)
		}
	}
	for i := range load {
		load[i] = 9.6 * MW / 6 // full allocation does not (before shaving)
	}
	for f := 0; f < 4; f++ {
		if topo.FailoverWithinCapacity(load, UPSID(f)) {
			t.Errorf("full allocation should overdraw on failure of UPS %d", f)
		}
	}
}

func TestPairLoadHelpers(t *testing.T) {
	topo := fourN3Room(t, 1)
	load := NewPairLoad(topo)
	load[0] = MW
	c := load.Clone()
	c[0] = 2 * MW
	if load[0] != MW {
		t.Error("Clone aliases the original")
	}
	if load.Total() != MW {
		t.Errorf("Total = %v, want 1MW", load.Total())
	}
	// Short PairLoads treat missing pairs as zero.
	short := PairLoad{MW}
	loads := topo.UPSLoads(short)
	if loads[0] != MW/2 || loads[1] != MW/2 {
		t.Errorf("short PairLoad UPS loads = %v", loads)
	}
}

// TestPairFeeds: a pair's load reaches exactly its two upstream UPSes.
func TestPairFeeds(t *testing.T) {
	topo := fourN3Room(t, 1)
	p := topo.Pairs[0]
	load := NewPairLoad(topo)
	load[p.ID] = MW
	for u, w := range topo.UPSLoads(load) {
		feeds := UPSID(u) == p.UPSes[0] || UPSID(u) == p.UPSes[1]
		if feeds && w != MW/2 || !feeds && w != 0 {
			t.Errorf("UPS %d carries %v of pair %d's 1MW", u, w, p.ID)
		}
	}
}
