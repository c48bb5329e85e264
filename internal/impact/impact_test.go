package impact

import (
	"math"
	"testing"
	"testing/quick"

	"flex/internal/workload"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		pts  []Point
		ok   bool
	}{
		{"empty", nil, false},
		{"single", []Point{{0.5, 0.5}}, true},
		{"fraction out of range", []Point{{-0.1, 0}}, false},
		{"fraction above 1", []Point{{1.1, 0}}, false},
		{"impact out of range", []Point{{0, -0.1}}, false},
		{"impact above 1", []Point{{0, 1.5}}, false},
		{"duplicate fraction", []Point{{0.5, 0.1}, {0.5, 0.2}}, false},
		{"decreasing impact", []Point{{0, 0.5}, {1, 0.2}}, false},
		{"valid", []Point{{0, 0}, {0.5, 0.3}, {1, 1}}, true},
	}
	for _, c := range cases {
		_, err := New(c.name, c.pts)
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew("bad", nil)
}

func TestAtInterpolation(t *testing.T) {
	f := MustNew("f", []Point{{0.2, 0}, {0.8, 0.6}})
	cases := []struct{ frac, want float64 }{
		{0, 0},     // flat before first point
		{0.2, 0},   // at first point
		{0.5, 0.3}, // midpoint
		{0.8, 0.6}, // at last point
		{1.0, 0.6}, // flat after last point
		{-0.5, 0},  // clamped
		{1.5, 0.6}, // clamped
		{0.35, 0.15},
	}
	for _, c := range cases {
		if got := f.At(c.frac); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.frac, got, c.want)
		}
	}
}

func TestZeroFunctionIsZero(t *testing.T) {
	var zero Function
	for _, frac := range []float64{0, 0.5, 1} {
		if zero.At(frac) != 0 {
			t.Errorf("zero value At(%v) = %v", frac, zero.At(frac))
		}
	}
	z := Zero()
	if z.At(0.7) != 0 || len(z.Points()) != 2 {
		t.Error("Zero() misbehaves")
	}
}

func TestLinear(t *testing.T) {
	f := Linear("lin", 0.8)
	if math.Abs(f.At(0.5)-0.4) > 1e-12 {
		t.Errorf("Linear At(0.5) = %v, want 0.4", f.At(0.5))
	}
}

func TestCritical(t *testing.T) {
	f := MustNew("crit", []Point{{0, 0}, {0.9, 0.5}, {0.95, 1}})
	if f.Critical(0.5) {
		t.Error("0.5 should not be critical")
	}
	if !f.Critical(0.95) || !f.Critical(1) {
		t.Error("0.95+ should be critical")
	}
}

func TestMonotoneProperty(t *testing.T) {
	fns := []Function{Figure8A(), Figure8B(), Figure8C(),
		Realistic1().ByCategory[workload.SoftwareRedundant],
		Realistic2().ByCategory[workload.NonRedundantCapable]}
	check := func(a, b float64) bool {
		fa := math.Mod(math.Abs(a), 1)
		fb := math.Mod(math.Abs(b), 1)
		if fa > fb {
			fa, fb = fb, fa
		}
		for _, f := range fns {
			if f.At(fa) > f.At(fb)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedProperty(t *testing.T) {
	f := Figure8C()
	check := func(x float64) bool {
		v := f.At(math.Mod(math.Abs(x), 2)) // also exercises clamping
		return v >= 0 && v <= 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointsReturnsCopy(t *testing.T) {
	f := Figure8A()
	ps := f.Points()
	ps[0].Impact = 0.99
	if f.Points()[0].Impact == 0.99 {
		t.Fatal("Points leaked internal state")
	}
}

func TestFigure8Shapes(t *testing.T) {
	// A: protected critical racks near the end.
	if !Figure8A().Critical(0.95) {
		t.Error("Figure8A should protect management racks")
	}
	// B: large free-shutdown region.
	if Figure8B().At(0.5) != 0 {
		t.Error("Figure8B should have zero impact at 50%")
	}
	// C: growth buffer then critical tail.
	if Figure8C().At(0.1) != 0 {
		t.Error("Figure8C growth buffer should be free")
	}
	if !Figure8C().Critical(0.95) {
		t.Error("Figure8C should protect management racks")
	}
}

func TestScenarioFor(t *testing.T) {
	s := Realistic1()
	// real1-sr has the vertex (0.55, 0.05); the override reads 0.55 there.
	srF := s.For("websearch", workload.SoftwareRedundant)
	if got := srF.At(0.55); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("SR function at 0.55 = %v, want real1-sr's 0.05", got)
	}
	// Unknown category (non-cap-able has no function) → zero function.
	if f := s.For("gpu", workload.NonRedundantNonCapable); f.At(0.5) != 0 {
		t.Error("missing category should yield zero function")
	}
	// Per-workload override wins.
	s.ByWorkload = map[string]Function{"websearch": Linear("override", 1)}
	if got := s.For("websearch", workload.SoftwareRedundant).At(0.55); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("override not applied: At(0.55) = %v", got)
	}
}

func TestExtremeScenarioOrdering(t *testing.T) {
	// Extreme-1: shutdown (SR) must always look cheaper than throttling.
	e1 := Extreme1()
	sr := e1.ByCategory[workload.SoftwareRedundant]
	cap := e1.ByCategory[workload.NonRedundantCapable]
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if sr.At(frac) >= cap.At(frac) {
			t.Errorf("Extreme-1 at %.2f: SR %.2f !< cap %.2f", frac, sr.At(frac), cap.At(frac))
		}
	}
	// Extreme-2 is the mirror image.
	e2 := Extreme2()
	sr2 := e2.ByCategory[workload.SoftwareRedundant]
	cap2 := e2.ByCategory[workload.NonRedundantCapable]
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if cap2.At(frac) >= sr2.At(frac) {
			t.Errorf("Extreme-2 at %.2f: cap %.2f !< SR %.2f", frac, cap2.At(frac), sr2.At(frac))
		}
	}
}

func TestDefaultScenarioThrottlesBeforeShutdown(t *testing.T) {
	d := Default()
	sr := d.ByCategory[workload.SoftwareRedundant]
	cap := d.ByCategory[workload.NonRedundantCapable]
	// Even fully throttling all cap-able racks must look cheaper than the
	// first shutdown (paper: act on SR only after cap-ables are throttled).
	if cap.At(1) >= sr.At(0) {
		t.Errorf("default: cap.At(1)=%.2f should be < sr.At(0)=%.2f", cap.At(1), sr.At(0))
	}
}

func TestFigure11ScenariosComplete(t *testing.T) {
	ss := Figure11Scenarios()
	if len(ss) != 4 {
		t.Fatalf("got %d scenarios, want 4", len(ss))
	}
	names := map[string]bool{}
	for _, s := range ss {
		names[s.Name] = true
		for _, cat := range []workload.Category{workload.SoftwareRedundant, workload.NonRedundantCapable} {
			if _, ok := s.ByCategory[cat]; !ok {
				t.Errorf("%s missing function for %v", s.Name, cat)
			}
		}
	}
	for _, want := range []string{"Extreme-1", "Extreme-2", "Realistic-1", "Realistic-2"} {
		if !names[want] {
			t.Errorf("missing scenario %s", want)
		}
	}
}
