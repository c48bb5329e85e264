package cooling

import (
	"math"
	"testing"
	"time"

	"flex/internal/power"
	"flex/internal/workload"
)

func twoDomains() []Domain {
	return []Domain{
		{ID: 0, Units: 4, UnitCFM: 40000},
		{ID: 1, Units: 4, UnitCFM: 40000},
	}
}

// rackSet loads domain A close to its full (zero-reserve) airflow and
// domain B lightly.
func rackSet() []Rack {
	var racks []Rack
	mk := func(id string, dom DomainID, cat workload.Category, kw float64) Rack {
		r := Rack{ID: id, Domain: dom, Power: power.Watts(kw * 1e3),
			CFMPerWatt: 0.1, Category: cat}
		if cat == workload.NonRedundantCapable {
			r.FlexPower = power.Watts(0.85 * float64(r.Power))
		}
		return r
	}
	// Domain A: 1.5MW → 150k CFM of 160k total.
	for i := 0; i < 3; i++ {
		racks = append(racks, mk("a-sr-"+string(rune('0'+i)), 0, workload.SoftwareRedundant, 100))
	}
	for i := 0; i < 6; i++ {
		racks = append(racks, mk("a-cap-"+string(rune('0'+i)), 0, workload.NonRedundantCapable, 100))
	}
	for i := 0; i < 6; i++ {
		racks = append(racks, mk("a-nc-"+string(rune('0'+i)), 0, workload.NonRedundantNonCapable, 100))
	}
	// Domain B: 0.5MW → 50k CFM of 160k (plenty spare).
	for i := 0; i < 5; i++ {
		racks = append(racks, mk("b-nc-"+string(rune('0'+i)), 1, workload.NonRedundantNonCapable, 100))
	}
	return racks
}

func TestDomainCFMAccounting(t *testing.T) {
	d := twoDomains()[0]
	if d.TotalCFM() != 160000 {
		t.Fatalf("TotalCFM = %v", d.TotalCFM())
	}
	if got := d.CFMWithFailures(1); got != 120000 {
		t.Fatalf("conventional CFM (one reserved unit) = %v", got)
	}
	if d.CFMWithFailures(2) != 80000 {
		t.Fatalf("CFMWithFailures(2) = %v", d.CFMWithFailures(2))
	}
	if d.CFMWithFailures(99) != 0 {
		t.Fatalf("CFMWithFailures(99) = %v", d.CFMWithFailures(99))
	}
}

func TestTimeToCriticalGradual(t *testing.T) {
	p := DefaultThermalParams()
	// No deficit → effectively never.
	if p.TimeToCritical(100, 100) < 24*time.Hour {
		t.Fatal("no deficit should never go critical")
	}
	// Small deficit whose steady state stays below critical → never.
	// deficit 20%: steady = 25 + 12 = 37°C < 45°C.
	if p.TimeToCritical(100, 80) < 24*time.Hour {
		t.Fatal("small deficit should never go critical")
	}
	// 50% deficit: steady = 55°C > 45°C → finite window, and — the §VI
	// claim — measured in minutes, far beyond the 10-second power budget.
	w := p.TimeToCritical(100, 50)
	if w < time.Minute || w > time.Hour {
		t.Fatalf("window = %v, want minutes", w)
	}
	if w < 10*power.FlexLatencyBudget {
		t.Fatalf("cooling window %v should dwarf the 10s power budget", w)
	}
	// More deficit → shorter window.
	if p.TimeToCritical(100, 30) >= w {
		t.Fatal("window must shrink with deficit")
	}
}

func TestPlanMitigationPrefersMigration(t *testing.T) {
	// Lose 2 of 4 units in domain A: available 80k vs demand 150k.
	plan, err := PlanMitigation(twoDomains(), rackSet(), 0, 2, DefaultThermalParams())
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Safe {
		t.Fatalf("plan not safe, residual %v", plan.ResidualDeficitCFM)
	}
	if plan.Window < time.Minute {
		t.Fatalf("window = %v", plan.Window)
	}
	// Safety needs demand ≤ available/(1−1/3) = 120k: recover ≥30k. The
	// three 10k-CFM SR migrations cover it exactly — no throttling, no
	// shutdown (mitigation stops at safety, §VI's "no extra cost" story).
	kinds := map[MitigationKind]int{}
	for _, s := range plan.Steps {
		kinds[s.Kind]++
		if s.Kind == Migrate && s.Target != 1 {
			t.Fatalf("migration to %d, want domain B", s.Target)
		}
	}
	if kinds[Migrate] != 3 {
		t.Fatalf("migrations = %d, want 3", kinds[Migrate])
	}
	if kinds[Throttle] != 0 || kinds[Shutdown] != 0 {
		t.Fatalf("unnecessary strict actions: %v", kinds)
	}
	recovered := 0.0
	for _, s := range plan.Steps {
		recovered += s.CFMRecovered
	}
	if recovered < 30000-1e-6 {
		t.Fatalf("recovered %v CFM, need ≥30k", recovered)
	}
}

func TestPlanMitigationNoDeficitNoSteps(t *testing.T) {
	// Losing only the redundant unit leaves 120k ≥ 150k? No: 150k > 120k.
	// Use a single failed unit with lighter load: drop domain A to 100k
	// demand by removing racks.
	racks := rackSet()[:10] // 3 SR + 6 cap + 1 nc = 1.0MW → 100k CFM
	plan, err := PlanMitigation(twoDomains(), racks, 0, 1, DefaultThermalParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 0 || plan.ResidualDeficitCFM != 0 {
		t.Fatalf("expected no-op plan, got %+v", plan)
	}
	if plan.Window < 24*time.Hour {
		t.Fatalf("no-deficit window = %v", plan.Window)
	}
}

func TestPlanMitigationFallsBackToShutdown(t *testing.T) {
	// Remove domain B's spare capacity: fill it to the brim so nothing
	// can migrate; the plan must throttle and then shut down SR racks.
	racks := rackSet()
	for i := 0; i < 11; i++ {
		racks = append(racks, Rack{
			ID: "b-fill-" + string(rune('a'+i)), Domain: 1,
			Power: power.Watts(100e3), CFMPerWatt: 0.1,
			Category: workload.NonRedundantNonCapable,
		})
	}
	plan, err := PlanMitigation(twoDomains(), racks, 0, 2, DefaultThermalParams())
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[MitigationKind]int{}
	for _, s := range plan.Steps {
		kinds[s.Kind]++
	}
	if kinds[Migrate] != 0 {
		t.Fatalf("migrated %d racks into a full domain", kinds[Migrate])
	}
	if kinds[Shutdown] == 0 {
		t.Fatal("expected shutdowns as last resort")
	}
	if kinds[Throttle] == 0 {
		t.Fatal("expected throttles before shutdowns")
	}
}

func TestPlanMitigationUnknownDomain(t *testing.T) {
	if _, err := PlanMitigation(twoDomains(), rackSet(), 99, 1, DefaultThermalParams()); err == nil {
		t.Fatal("expected error")
	}
}

func TestMitigationKindString(t *testing.T) {
	if Migrate.String() != "migrate" || Throttle.String() != "throttle" || Shutdown.String() != "shutdown" {
		t.Error("kind strings")
	}
	if MitigationKind(9).String() != "MitigationKind(9)" {
		t.Error("unknown kind")
	}
}

func TestRackCFM(t *testing.T) {
	r := Rack{Power: 10e3, CFMPerWatt: 0.1}
	if math.Abs(r.CFM()-1000) > 1e-9 {
		t.Fatalf("CFM = %v", r.CFM())
	}
}
