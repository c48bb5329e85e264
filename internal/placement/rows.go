package placement

import (
	"fmt"

	"flex/internal/power"
)

// Row-level space modelling (optional): the paper's placement simulator
// "models the placement of each deployment of racks to a specific row in
// the room" (§V-A) — a deployment occupies whole contiguous rows under one
// PDU-pair (its network/busway unit), so row granularity adds a second,
// finer fragmentation source on top of pair-level slot counts.
//
// Rows are enabled by setting Room.RowsPerPair and Room.RowSlots; when
// enabled they must satisfy RowsPerPair × RowSlots == SlotsPerPair for
// every pair. Deployments are then placed on the first run of contiguous
// rows with enough total slots, filling partially used rows only as the
// first row of a run.

// rowState tracks per-pair row occupancy: rows fill front to back and a
// deployment records exactly which row slots it consumed so removal can
// return them.
type rowState struct {
	rowSlots int
	// free[pair][row] is the remaining slot count of each row.
	free [][]int
	// used[deploymentID] lists (pair, row, slots) consumptions.
	used map[int][]rowUse
}

type rowUse struct {
	pair  power.PDUPairID
	row   int
	slots int
}

func newRowState(room *Room) (*rowState, error) {
	if room.RowsPerPair <= 0 {
		return nil, nil // rows disabled
	}
	if room.RowSlots <= 0 {
		return nil, fmt.Errorf("placement: RowSlots must be positive when rows are enabled")
	}
	rs := &rowState{rowSlots: room.RowSlots, used: make(map[int][]rowUse)}
	for pid := range room.Topo.Pairs {
		if room.RowsPerPair*room.RowSlots != room.SlotsPerPair[pid] {
			return nil, fmt.Errorf("placement: pair %d has %d slots but rows give %d×%d",
				pid, room.SlotsPerPair[pid], room.RowsPerPair, room.RowSlots)
		}
		rows := make([]int, room.RowsPerPair)
		for r := range rows {
			rows[r] = room.RowSlots
		}
		rs.free = append(rs.free, rows)
	}
	return rs, nil
}

// run returns the first row of the first run under pair pid that holds
// racks, or -1: a row with free slots followed by as many completely empty
// rows as the rest needs (a deployment is contiguous within its rows).
func (rs *rowState) run(pid power.PDUPairID, racks int) int {
	rows := rs.free[pid]
	for start, avail := range rows {
		if avail == 0 {
			continue
		}
		remaining := racks - avail
		for r := start + 1; r < len(rows) && remaining > 0 && rows[r] == rs.rowSlots; r++ {
			remaining -= rows[r]
		}
		if remaining <= 0 {
			return start
		}
	}
	return -1
}

// fit returns the rows a deployment of racks would occupy under pair pid
// (the first run, filled front to back), or nil when no run holds it.
func (rs *rowState) fit(pid power.PDUPairID, racks int) []rowUse {
	start := rs.run(pid, racks)
	if start < 0 {
		return nil
	}
	take := make([]rowUse, 0, 2)
	for r, remaining := start, racks; remaining > 0; r++ {
		n := min(rs.free[pid][r], remaining)
		take = append(take, rowUse{pair: pid, row: r, slots: n})
		remaining -= n
	}
	return take
}

// place commits the rows for deployment id: a fresh fit, or the exact
// allocation a remove handed back.
func (rs *rowState) place(id int, take []rowUse) {
	for _, u := range take {
		rs.free[u.pair][u.row] -= u.slots
	}
	rs.used[id] = take
}

// remove returns deployment id's rows, handing back the exact allocation
// so callers that undo a speculative move can restore it verbatim (a
// re-fit is not guaranteed to succeed under the contiguity rule once other
// deployments moved).
func (rs *rowState) remove(id int) []rowUse {
	take := rs.used[id]
	for _, u := range take {
		rs.free[u.pair][u.row] += u.slots
	}
	delete(rs.used, id)
	return take
}
