package report

import (
	"fmt"
	"io"

	"flex/internal/obs/slo"
)

// WriteSLOSummary renders the safety auditor's final state as a
// human-readable summary: one line per objective with its burn rates,
// the what-if probe record, and the health transition history. The
// flexsim -slo episode experiment prints this after a run.
func WriteSLOSummary(w io.Writer, st slo.Status, transitions []slo.Transition) error {
	if _, err := fmt.Fprintf(w, "SLO summary (%d audit ticks, health %s):\n", st.Ticks, st.Health.State); err != nil {
		return err
	}
	for _, o := range st.Objectives {
		status := "ok"
		if o.Breached {
			status = "BREACHED"
		} else if o.Bad {
			status = "burning"
		}
		if _, err := fmt.Fprintf(w, "  %-20s target %.2f%%  fast burn %5.2fx  slow burn %5.2fx  %s\n",
			o.Name, o.Target*100, o.FastBurn, o.SlowBurn, status); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "  what-if probe: %d rounds, %d infeasible, %d clean in a row (last %.3fs)\n",
		st.Probe.Rounds, st.Probe.Failures, st.Probe.CleanRounds, st.Probe.LastLatencySeconds); err != nil {
		return err
	}
	if st.EpisodeOpen {
		if _, err := fmt.Fprintf(w, "  open overdraw episode %d: budget burn %.0f%%\n",
			st.EpisodeID, st.BudgetBurn*100); err != nil {
			return err
		}
	}
	if len(transitions) == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w, "  health transitions:"); err != nil {
		return err
	}
	for _, tr := range transitions {
		reason := ""
		if len(tr.Reasons) > 0 {
			reason = "  (" + tr.Reasons[0] + ")"
		}
		if _, err := fmt.Fprintf(w, "    %s  %s → %s%s\n",
			tr.Time.Format("15:04:05"), tr.From, tr.To, reason); err != nil {
			return err
		}
	}
	return nil
}
