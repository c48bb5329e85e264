package power

import (
	"math"
	"testing"
)

func TestPairShare(t *testing.T) {
	cases := []struct {
		aOut, bOut bool
		wa, wb     float64
	}{
		{false, false, 0.5, 0.5},
		{true, false, 0, 1},
		{false, true, 1, 0},
		{true, true, 0, 0},
	}
	for _, c := range cases {
		if wa, wb := PairShare(c.aOut, c.bOut); wa != c.wa || wb != c.wb {
			t.Errorf("PairShare(%v, %v) = %v, %v; want %v, %v", c.aOut, c.bOut, wa, wb, c.wa, c.wb)
		}
	}
}

func TestFailoverWeight(t *testing.T) {
	a, b := UPSID(0), UPSID(1)
	if FailoverWeight(a, b, 2, SetOf(3)) != 0 {
		t.Error("non-member survivor should weigh 0")
	}
	if FailoverWeight(a, b, b, SetOf(a)) != 1 {
		t.Error("partner of failed UPS should take full load")
	}
	if FailoverWeight(a, b, a, SetOf(3)) != 0.5 {
		t.Error("uninvolved failure keeps half share")
	}
	if FailoverWeight(a, b, a, SetOf(a)) != 0 {
		t.Error("the failed UPS itself carries nothing")
	}
	if FailoverWeight(a, b, a, 0) != 0.5 || FailoverWeight(a, b, 2, 0) != 0 {
		t.Error("with nothing failed each UPS of the pair carries half (Eq. 2)")
	}
}

// FailoverLoads runs per emulation tick and per what-if probe; the failed
// set must not cost it a second allocation beyond the result slice.
func TestFailoverLoadsAllocatesOnlyItsResult(t *testing.T) {
	topo := fourN3Room(t, 3)
	load := NewPairLoad(topo)
	for i := range load {
		load[i] = 100 * KW
	}
	if n := testing.AllocsPerRun(100, func() { topo.FailoverLoads(load, 2) }); n != 1 {
		t.Fatalf("FailoverLoads allocates %v times per call, want 1", n)
	}
}

func TestLoadFlowDarkPair(t *testing.T) {
	topo := fourN3Room(t, 1)
	load := NewPairLoad(topo)
	load[0] = 10 * KW // pair 0 is fed by UPSes 0 and 1
	if _, dark := topo.LoadFlow(load, SetOf(0, 2)); dark {
		t.Error("pair 0 still has UPS 1")
	}
	loads, dark := topo.LoadFlow(load, SetOf(0, 1))
	if !dark {
		t.Error("pair 0 lost both UPSes")
	}
	for u, w := range loads {
		if w != 0 {
			t.Errorf("UPS %d carries %v of a dark pair", u, w)
		}
	}
}

// TestCheckNamesTheRefusingEquation holds Ledger.Check's verdict to the
// from-scratch load flow on hand-built states of the 4 × 2.4 MW room: one
// committed load on pair 0 (UPSes 0 and 1), then an addition to the same
// pair that breaks exactly Eq. 2, exactly Eq. 4, both (Eq. 2 is checked
// first, so it is the one reported) or neither.
func TestCheckNamesTheRefusingEquation(t *testing.T) {
	topo := fourN3Room(t, 1)
	const pid = PDUPairID(0)
	a, b := topo.Pairs[pid].UPSes[0], topo.Pairs[pid].UPSes[1]
	cases := []struct {
		name                   string
		havePow, haveCap       Watts // committed on pair 0
		pow, capPow            Watts // the addition
		overNormal, overFailed bool  // which inequality the addition breaks
		want                   Verdict
	}{
		// 4.6 MW allocated puts 2.3 MW on each UPS; all of it can be shed.
		{"eq2 only", 4.6 * MW, 0, 400 * KW, 0, true, false, OverNormalLimit},
		// 2.3 MW that cannot be shaved lands whole on the survivor.
		{"eq4 only", 2.3 * MW, 2.3 * MW, 200 * KW, 200 * KW, false, true, OverFailoverCapacity},
		{"both", 4.6 * MW, 2.3 * MW, 400 * KW, 200 * KW, true, true, OverNormalLimit},
		{"neither", 2.3 * MW, 2.3 * MW, 100 * KW, 50 * KW, false, false, WithinLimits},
		{"empty room", 0, 0, 100 * KW, 100 * KW, false, false, WithinLimits},
	}
	for _, c := range cases {
		l := NewLedger(topo, nil)
		l.Add(a, b, c.havePow, c.haveCap)

		// The hypothetical state, from scratch.
		full, shaved := NewPairLoad(topo), NewPairLoad(topo)
		full[pid], shaved[pid] = c.havePow+c.pow, c.haveCap+c.capPow
		over := func(load PairLoad, out UPSSet) bool {
			loads, _ := topo.LoadFlow(load, out)
			return loads[a] > topo.UPSes[a].Capacity+CapacityTolerance || loads[b] > topo.UPSes[b].Capacity+CapacityTolerance
		}
		overNormal, overFailed := over(full, 0), false
		for f := range topo.UPSes {
			overFailed = overFailed || over(shaved, SetOf(UPSID(f)))
		}
		if overNormal != c.overNormal || overFailed != c.overFailed {
			t.Fatalf("%s: the load flow says Eq. 2 broken %v, Eq. 4 broken %v; the case was built for %v, %v",
				c.name, overNormal, overFailed, c.overNormal, c.overFailed)
		}
		if got := l.Check(a, b, c.pow, c.capPow); got != c.want {
			t.Errorf("%s: Check = %d, want %d", c.name, got, c.want)
		}
		if got := l.Fits(a, b, c.pow, c.capPow); got != (c.want == WithinLimits) {
			t.Errorf("%s: Fits = %v beside verdict %d", c.name, got, c.want)
		}
	}
}

// ledgerFuzzTopology decodes a small xN/y topology with per-UPS capacities
// and every UPS combination wired, from the first bytes of data.
func ledgerFuzzTopology(t *testing.T, data []byte) (*Topology, []byte) {
	if len(data) < 3 {
		t.Skip("need a topology header")
	}
	x := 2 + int(data[0])%5
	y := 1 + int(data[1])%(x-1)
	perCombo := 1 + int(data[2])%2
	data = data[3:]
	if len(data) < x {
		t.Skip("need one capacity byte per UPS")
	}
	upses := make([]UPS, x)
	for u := range upses {
		upses[u] = UPS{ID: UPSID(u), Name: "u", Capacity: Watts(1+int(data[u])%4) * 0.5 * MW}
	}
	data = data[x:]
	var pairs []PDUPair
	for a := 0; a < x; a++ {
		for b := a + 1; b < x; b++ {
			for k := 0; k < perCombo; k++ {
				pairs = append(pairs, PDUPair{ID: PDUPairID(len(pairs)), Name: "p", UPSes: [2]UPSID{UPSID(a), UPSID(b)}})
			}
		}
	}
	topo, err := NewCustomTopology(Redundancy{X: x, Y: y}, upses, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return topo, data
}

// FuzzLedgerMatchesLoadFlow is the differential test of the incremental
// Ledger against the from-scratch load flow: over random small topologies
// and random signed Add sequences, the ledger's tables must equal UPSLoads
// of the accumulated allocated pair loads and FailoverLoads of the
// accumulated post-shave pair loads after every step, and Fits must agree
// with a capacity check of the hypothetical loads computed from scratch and
// with Check's verdict.
func FuzzLedgerMatchesLoadFlow(f *testing.F) {
	f.Add([]byte{2, 2, 0, 3, 3, 3, 3, 0, 1, 100, 3, 7, 1, 150, 4, 0, 0, 100, 3})
	f.Add([]byte{0, 0, 1, 1, 2, 0, 1, 250, 4, 1, 2, 250, 0, 0, 0, 250, 4})
	f.Add([]byte{4, 3, 1, 0, 1, 2, 3, 0, 1, 29, 1, 200, 2, 40, 1, 77, 3, 9, 0, 200, 2, 5, 1, 120, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, ops := ledgerFuzzTopology(t, data)
		var limits []Watts // nil: zero-reserved-power limits
		if len(ops) > 0 && ops[0]%2 == 1 {
			limits = conventionalLimits(topo)
		}
		limitOf := func(u UPSID) Watts {
			if limits == nil {
				return topo.UPSes[u].Capacity
			}
			return limits[u]
		}
		l := NewLedger(topo, limits)
		full, shaved := NewPairLoad(topo), NewPairLoad(topo)
		var gross float64 // total |power| moved: the scale rounding error grows with
		for ; len(ops) >= 4; ops = ops[4:] {
			pid := PDUPairID(int(ops[0]) % len(topo.Pairs))
			pow := Watts(ops[2]) * 10 * KW
			capPow := pow * Watts(ops[3]%5) / 4
			if ops[1]%3 == 0 {
				pow, capPow = -pow, -capPow
			}
			a, b := topo.Pairs[pid].UPSes[0], topo.Pairs[pid].UPSes[1]
			gross += math.Abs(float64(pow))
			eps := Watts(1e-9 * math.Max(1, gross))

			// Fits against the hypothetical loads, from scratch. A left-hand
			// side within eps of its limit may round either way.
			full[pid] += pow
			shaved[pid] += capPow
			want, ambiguous := true, false
			check := func(lhs, rhs Watts) {
				if math.Abs(float64(lhs-rhs)) <= float64(eps) {
					ambiguous = true
				} else if lhs > rhs {
					want = false
				}
			}
			normal := topo.UPSLoads(full)
			for _, u := range [2]UPSID{a, b} {
				check(normal[u], limitOf(u)+CapacityTolerance)
				for f := range topo.UPSes {
					if UPSID(f) != u {
						check(topo.FailoverLoads(shaved, UPSID(f))[u], topo.UPSes[u].Capacity+CapacityTolerance)
					}
				}
			}
			got := l.Fits(a, b, pow, capPow)
			if !ambiguous && got != want {
				t.Fatalf("Fits(%d, %d, %v, %v) = %v, from-scratch check says %v", a, b, pow, capPow, got, want)
			}
			if verdict := l.Check(a, b, pow, capPow); got != (verdict == WithinLimits) {
				t.Fatalf("Fits(%d, %d, %v, %v) = %v beside verdict %d", a, b, pow, capPow, got, verdict)
			}

			l.Add(a, b, pow, capPow)
			for u := range topo.UPSes {
				uu := UPSID(u)
				if d := l.Normal(uu) - normal[u]; math.Abs(float64(d)) > float64(eps) {
					t.Fatalf("Normal(%d) = %v, UPSLoads gives %v", u, l.Normal(uu), normal[u])
				}
				if l.NormalHeadroom(uu) != limitOf(uu)-l.Normal(uu) {
					t.Fatalf("NormalHeadroom(%d) is not limit minus load", u)
				}
			}
			for f := range topo.UPSes {
				ff := UPSID(f)
				loads := topo.FailoverLoads(shaved, ff)
				for u := range topo.UPSes {
					uu := UPSID(u)
					if d := l.Failover(ff, uu) - loads[u]; math.Abs(float64(d)) > float64(eps) {
						t.Fatalf("Failover(%d, %d) = %v, FailoverLoads gives %v", f, u, l.Failover(ff, uu), loads[u])
					}
					if l.FailoverHeadroom(ff, uu) != topo.UPSes[u].Capacity-l.Failover(ff, uu) {
						t.Fatalf("FailoverHeadroom(%d, %d) is not capacity minus load", f, u)
					}
				}
			}
		}

		// A scratch copy diverges from its source until refreshed, then
		// answers Fits identically.
		c := l.Clone()
		c.Add(0, 1, 10*MW, 10*MW)
		if l.Normal(0) == c.Normal(0) {
			t.Fatal("Clone shares its tables with the source")
		}
		c.CopyFrom(l)
		for _, p := range topo.Pairs {
			a, b := p.UPSes[0], p.UPSes[1]
			if c.Fits(a, b, 50*KW, 40*KW) != l.Fits(a, b, 50*KW, 40*KW) {
				t.Fatalf("copy disagrees with its source on pair %d", p.ID)
			}
		}
	})
}
