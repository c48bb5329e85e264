package replay

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

// The meta event's Detail is the header as json.Marshal encodes it, byte
// for byte, whether MetaEvent writes it itself or hands a header that needs
// escaping (or cannot be encoded) to encoding/json; and it writes every
// header the tree records itself.
func TestMetaEventMatchesMarshal(t *testing.T) {
	full := Header{
		Version:     HeaderVersion,
		Room:        "emulation",
		Start:       time.Date(2021, 6, 1, 0, 0, 0, 123456789, time.FixedZone("", -7*3600)),
		Scenario:    "Default",
		Buffer:      14400.5,
		Utilization: 0.85,
		Seed:        -7,
		Controllers: []string{"ctl-0", "ctl-1"},
		Racks: []HeaderRack{
			{ID: "rack-000", Workload: "batch", Category: 1, Pair: 3, Allocated: 14400, FlexPower: 11520.000000000002, Priority: 2},
			{ID: "rack-001", Workload: "web", Allocated: 1e21, FlexPower: 1e-7},
			{ID: "rack-002", Workload: "", Category: -1, Allocated: 5e-324, FlexPower: -0.0},
		},
	}
	for i := 0; i < reflect.ValueOf(full).NumField(); i++ {
		if reflect.ValueOf(full).Field(i).IsZero() {
			t.Fatalf("the full header leaves %s zero; fill it so its encoding is checked", reflect.TypeOf(full).Field(i).Name)
		}
	}
	with := func(edit func(*Header)) Header {
		h := full
		h.Controllers = append([]string(nil), full.Controllers...)
		h.Racks = append([]HeaderRack(nil), full.Racks...)
		edit(&h)
		return h
	}
	cases := []struct {
		name  string
		h     Header
		plain bool
	}{
		{"full", full, true},
		{"zero", Header{}, true},
		{"empty racks", with(func(h *Header) { h.Racks = []HeaderRack{}; h.Controllers = []string{} }), true},
		{"omitted", with(func(h *Header) { h.Utilization, h.Seed, h.Controllers = 0, 0, nil }), true},
		{"large exponent", with(func(h *Header) { h.Buffer = -1.5e300 }), true},
		{"small exponent", with(func(h *Header) { h.Utilization = 1.25e-9 }), true},
		{"html", with(func(h *Header) { h.Racks[1].Workload = "a<b>&c" }), false},
		{"quote", with(func(h *Header) { h.Room = `say "hi"\` }), false},
		{"control", with(func(h *Header) { h.Controllers[1] = "tab\there" }), false},
		{"unicode", with(func(h *Header) { h.Racks[0].ID = "räck-\u2028-\xff" }), false},
		{"NaN", with(func(h *Header) { h.Racks[2].FlexPower = math.NaN() }), false},
		{"Inf", with(func(h *Header) { h.Buffer = math.Inf(1) }), false},
		{"year out of range", with(func(h *Header) { h.Start = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) }), false},
	}
	for _, c := range cases {
		if _, plain := c.h.plainJSON(); plain != c.plain {
			t.Errorf("%s: plainJSON reports ok=%v, want %v", c.name, plain, c.plain)
		}
		want, wantErr := json.Marshal(c.h)
		e, err := c.h.MetaEvent(time.Time{}, "emu")
		if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%s: MetaEvent error %v, json.Marshal's %v", c.name, err, wantErr)
			continue
		}
		if err == nil && e.Detail != string(want) {
			t.Errorf("%s: MetaEvent wrote\n%s\njson.Marshal writes\n%s", c.name, e.Detail, want)
		}
	}
}
