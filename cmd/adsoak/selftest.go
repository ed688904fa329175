package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	caar "caar"
	"caar/journal"
)

// selftestReport documents the deliberate-fault self-test: the state file's
// head is restored and its records are replayed TWICE — exactly the
// double-application the one-file protocol rules out — and the same
// budget-conservation checker used live must flag the resulting over-spend.
// If it doesn't, the checker is too weak to trust and the whole run fails.
type selftestReport struct {
	Ran     bool    `json:"ran"`
	Caught  bool    `json:"caught"`
	Detail  string  `json:"detail,omitempty"`
	Records int64   `json:"journal_records"`
	Spent   float64 `json:"double_replay_total_spent"`
	Acked   float64 `json:"ledger_acked_spend"`
}

// runSelfTest copies the soak state file aside (Recover truncates torn tails
// in place), opens its head, replays its records twice, and runs the spend
// checker.
func runSelfTest(statePath, dir string, window int, led ledgerSnapshot) (selftestReport, error) {
	rep := selftestReport{Ran: true}
	cp := filepath.Join(dir, "selftest.state")
	if err := copyFile(statePath, cp); err != nil {
		return rep, err
	}
	f, err := os.OpenFile(cp, os.O_RDWR, 0o644)
	if err != nil {
		return rep, err
	}
	defer f.Close()

	cfg := caar.DefaultConfig()
	cfg.WindowSize = window
	eng, err := caar.OpenState(cfg, f)
	if err != nil {
		return rep, err
	}
	records, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return rep, err
	}
	first, err := journal.Recover(f, eng)
	if err != nil {
		return rep, fmt.Errorf("selftest: first replay: %w", err)
	}
	if _, err := f.Seek(records, io.SeekStart); err != nil {
		return rep, err
	}
	second, err := journal.Replay(f, eng)
	if err != nil {
		return rep, fmt.Errorf("selftest: second replay: %w", err)
	}
	rep.Records = int64(first.Applied + second.Applied)

	state := eng.Invariants()
	for _, c := range state.Campaigns {
		rep.Spent += c.Spent
	}
	for _, v := range led.AckedSpend {
		rep.Acked += v
	}
	v := checkSpendConservation(state, led)
	rep.Caught = !v.Pass
	rep.Detail = v.Detail
	if !rep.Caught {
		rep.Detail = fmt.Sprintf(
			"double replay went undetected: spent %.4f vs acked %.4f — budget checker too weak",
			rep.Spent, rep.Acked)
	}
	return rep, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer out.Close()
	if _, err := io.Copy(out, in); err != nil {
		return err
	}
	return out.Close()
}
