package online

import (
	"math"
	"math/rand"
	"testing"

	"flex/internal/placement"
	"flex/internal/power"
	"flex/internal/workload"
)

// referenceSimulate is the greedy completion in its first, plain form:
// every arrival scans the combos in index order and proves each running
// minimum with a fresh Ledger.Check (the room budgets are the occupancy's
// RoomLimit, as in the scorer). It is the oracle the scenario scorer is held
// to, bit for bit.
func (a *Admitter) referenceSimulate(c int, pow, capPow power.Watts, racks, offset int) float64 {
	a.runSafety.CopyFrom(a.occ.Ledger())
	copy(a.runSlots, a.comboSlots)
	copy(a.runPow, a.comboPow)
	simPow, simCapPow := a.occ.Placed()
	a.runSafety.Add(a.combos[c].UPSes[0], a.combos[c].UPSes[1], pow, capPow)
	a.runSlots[c] -= racks
	a.runPow[c] += float64(pow)
	simPow += pow
	simCapPow += capPow
	placed := 0.0
	n := len(a.stream)
	for k := 0; k < a.cfg.ScenarioDepth; k++ {
		dep := a.stream[(offset+k)%n]
		if a.occ.RoomLimit(simPow+dep.pow, simCapPow+dep.capPow) != placement.Fits {
			continue
		}
		pick := -1
		for j := 0; j < a.nCombos; j++ {
			if a.runSlots[j] < dep.racks {
				continue
			}
			if pick >= 0 && a.runPow[j] >= a.runPow[pick] {
				continue
			}
			if a.runSafety.Check(a.combos[j].UPSes[0], a.combos[j].UPSes[1], dep.pow, dep.capPow) != power.WithinLimits {
				continue
			}
			pick = j
		}
		if pick < 0 {
			continue
		}
		a.runSafety.Add(a.combos[pick].UPSes[0], a.combos[pick].UPSes[1], dep.pow, dep.capPow)
		a.runSlots[pick] -= dep.racks
		a.runPow[pick] += float64(dep.pow)
		simPow += dep.pow
		simCapPow += dep.capPow
		placed += float64(dep.pow)
	}
	return placed
}

// referenceScore is scoreComboLocked over referenceSimulate.
func (a *Admitter) referenceScore(c int, pow, capPow power.Watts, racks int, target []float64) float64 {
	dev := 0.0
	for k := 0; k < a.nCombos; k++ {
		load := a.comboPow[k]
		if k == c {
			load += float64(pow)
		}
		d := load - target[k]
		if d < 0 {
			d = -d
		}
		dev += d
	}
	if a.cfg.Scenarios <= 0 {
		return -dev
	}
	total := 0.0
	for s := 0; s < a.cfg.Scenarios; s++ {
		total += a.referenceSimulate(c, pow, capPow, racks, a.scCursor+s*scenarioStride)
	}
	return total/float64(a.cfg.Scenarios) - devWeight*dev
}

// fuzzDeployment decodes one valid deployment of up to 20 racks at 5–20 kW
// from four bytes.
func fuzzDeployment(id int, b []byte) workload.Deployment {
	d := workload.Deployment{
		ID:           id,
		Category:     workload.Category(b[1] % 3),
		Racks:        1 + int(b[2])%20,
		PowerPerRack: power.Watts(5+int(b[3])%16) * power.KW,
	}
	switch d.Category {
	case workload.NonRedundantCapable:
		d.FlexPowerFraction = 0.75 + float64(b[0]>>4)/160
	case workload.NonRedundantNonCapable:
		d.FlexPowerFraction = 1
	}
	return d
}

// scoreFuzzAdmitter decodes a small xN/y room (every UPS combination wired,
// per-UPS capacities, the way power's ledgerFuzzTopology does it) with the
// optional budgets and scorer shape switched by one flag byte, and returns
// its admitter with the bytes left over.
func scoreFuzzAdmitter(t *testing.T, data []byte) (*Admitter, []byte) {
	if len(data) < 5 {
		t.Skip("need a room header")
	}
	x := 2 + int(data[0])%5
	y := 1 + int(data[1])%(x-1)
	perCombo := 1 + int(data[2])%2
	slots := 20 + int(data[3])%41
	flags := data[4]
	data = data[5:]
	if len(data) < x {
		t.Skip("need one capacity byte per UPS")
	}
	upses := make([]power.UPS, x)
	for u := range upses {
		upses[u] = power.UPS{ID: power.UPSID(u), Name: "u", Capacity: power.Watts(1+int(data[u])%4) * 0.5 * power.MW}
	}
	data = data[x:]
	var pairs []power.PDUPair
	for a := 0; a < x; a++ {
		for b := a + 1; b < x; b++ {
			for k := 0; k < perCombo; k++ {
				pairs = append(pairs, power.PDUPair{ID: power.PDUPairID(len(pairs)), Name: "p", UPSes: [2]power.UPSID{power.UPSID(a), power.UPSID(b)}})
			}
		}
	}
	topo, err := power.NewCustomTopology(power.Redundancy{X: x, Y: y}, upses, pairs)
	if err != nil {
		t.Fatal(err)
	}
	room, err := placement.NewRoom(topo, slots)
	if err != nil {
		t.Fatal(err)
	}
	if flags&1 != 0 {
		room.CFMPerWatt = 0.1
		room.CoolingCFM = 0.1 * 0.8 * float64(topo.ProvisionedPower())
	}
	if flags&2 != 0 {
		room.PairCapacity = 300 * power.KW
	}
	if flags&4 != 0 {
		room.Oversubscription = 1.15
	}
	cfg := Config{Seed: int64(flags), ResolveEvery: -1}
	if flags&16 != 0 {
		cfg.Scenarios, cfg.ScenarioDepth = 2, 24
	}
	if flags&32 != 0 {
		// A stream shorter than the depth: every completion wraps.
		if len(data) < 4*5 {
			t.Skip("need five scenario arrivals")
		}
		for i := 0; i < 5; i++ {
			cfg.ScenarioTrace = append(cfg.ScenarioTrace, fuzzDeployment(i, data[4*i:]))
		}
		data = data[4*5:]
	}
	adm, err := NewAdmitter(room, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return adm, data
}

// FuzzScoreMatchesReference is the differential test of the scenario scorer
// against referenceSimulate: over random small rooms and random
// admit/remove sequences, every candidate combo of every arrival must score
// the same bits both ways, and Admit must commit to the combo the reference
// ranks first. One Admitter serves the whole sequence, so scratch that
// outlives a completion (a stale ordering, a threshold from the previous
// arrival) shows up as a mismatch.
func FuzzScoreMatchesReference(f *testing.F) {
	f.Add([]byte{2, 2, 0, 10, 0, 3, 3, 3, 3, 1, 1, 19, 12, 2, 0, 19, 12, 3, 2, 9, 15, 0, 0, 0, 0, 1, 1, 19, 12})
	for seed := int64(1); seed <= 6; seed++ {
		buf := make([]byte, 320)
		rand.New(rand.NewSource(seed)).Read(buf)
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		adm, ops := scoreFuzzAdmitter(t, data)
		target := adm.guidance.Load().target
		var live []int
		for id := 0; len(ops) >= 4; ops, id = ops[4:], id+1 {
			if ops[0]%4 == 0 {
				if len(live) > 0 {
					i := int(ops[1]) % len(live)
					if !adm.Remove(live[i]) {
						t.Fatalf("lost deployment %d", live[i])
					}
					live = append(live[:i], live[i+1:]...)
				}
				continue
			}
			d := fuzzDeployment(id, ops)
			pow := d.TotalPower()
			capPow := adm.room.CapPow(d)

			// Score under the cursor Admit is about to advance to.
			cursor := adm.scCursor
			if adm.scCursor++; adm.scCursor >= len(adm.stream) {
				adm.scCursor = 0
			}
			want, wantScore, candidates := -1, 0.0, 0
			for c := 0; c < adm.nCombos; c++ {
				cb := adm.combos[c]
				if adm.comboSlots[c] < d.Racks ||
					adm.occ.UPSLimit(cb.UPSes[0], cb.UPSes[1], pow, capPow) != placement.Fits {
					continue
				}
				if _, why := adm.occ.BestPair(cb.Pairs, d.Racks, pow); why != placement.Fits {
					continue
				}
				candidates++
				got := adm.scoreComboLocked(c, pow, capPow, d.Racks, target)
				ref := adm.referenceScore(c, pow, capPow, d.Racks, target)
				if math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("arrival %d on combo %d: score %v (%x), reference %v (%x)",
						id, c, got, math.Float64bits(got), ref, math.Float64bits(ref))
				}
				if want < 0 || ref > wantScore {
					want, wantScore = c, ref
				}
			}
			adm.scCursor = cursor

			pid, ok := adm.Admit(d)
			switch {
			case ok && want < 0:
				t.Fatalf("arrival %d admitted on pair %d with no feasible combo", id, pid)
			case ok && adm.comboOfPair[pid] != want:
				t.Fatalf("arrival %d admitted on combo %d (of %d candidates), the reference picks %d",
					id, adm.comboOfPair[pid], candidates, want)
			case ok:
				live = append(live, d.ID)
			}
		}
	})
}
