// Recovery: durability through snapshots and the event journal. The example
// builds an engine, snapshots its durable state, journals the live traffic
// that follows, simulates a crash, and reconstructs an equivalent engine by
// restoring the snapshot and replaying the journal tail. It then damages the
// journal the two ways real crashes and real disks do — a torn final record
// (power loss mid-append) and a flipped bit inside a record (silent media
// corruption) — and shows journal.Recover truncating to the last valid
// record and resuming.
//
//	go run ./examples/recovery
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	caar "caar"
	"caar/journal"
)

func main() {
	day := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	morning := day.Add(9 * time.Hour)

	// ----- phase 1: build the world the snapshot captures --------------
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	for _, u := range []string{"alice", "bob"} {
		must(eng.AddUser(u))
	}
	must(eng.Follow("alice", "bob"))
	must(eng.AddCampaign("spring", 100, day, day.Add(48*time.Hour)))
	must(eng.AddAd(caar.Ad{ID: "shoes", Text: "marathon running shoes", Campaign: "spring", Bid: 0.4}))
	must(eng.AddAd(caar.Ad{ID: "vpn", Text: "fast vpn anywhere", Bid: 0.6}))
	if _, err := eng.ServeImpression("", "shoes", morning); err != nil {
		log.Fatal(err)
	}

	var snapshot bytes.Buffer
	must(eng.Snapshot(&snapshot))
	fmt.Printf("snapshot taken: %d bytes (users, graph, ads, campaign spend)\n", snapshot.Len())

	// ----- phase 2: journaled live traffic ------------------------------
	var wal bytes.Buffer
	live := journal.NewLogged(eng, journal.NewWriter(&wal))
	must(live.AddUser("carol"))
	must(live.Follow("carol", "bob"))
	must(live.Post("bob", "marathon training with new shoes", morning))
	must(live.CheckIn("carol", 1.5, 1.5, morning))
	fmt.Printf("journal captured %d bytes of traffic after the snapshot\n", wal.Len())

	before, err := live.Recommend("carol", 2, morning.Add(time.Minute))
	must(err)

	// Keep copies of the raw bytes: Restore and Replay drain the buffers,
	// and phases 4-5 damage the journal stream in controlled ways.
	snap := append([]byte(nil), snapshot.Bytes()...)
	full := append([]byte(nil), wal.Bytes()...)

	// ----- phase 3: crash and recover ------------------------------------
	restored, err := caar.Restore(caar.DefaultConfig(), &snapshot)
	must(err)
	stats, err := journal.Replay(&wal, restored)
	must(err)
	fmt.Printf("recovered: snapshot + %d journal entries (%d skipped)\n", stats.Applied, stats.Skipped)

	after, err := restored.Recommend("carol", 2, morning.Add(time.Minute))
	must(err)

	fmt.Println("\nrecommendations for carol before the crash:")
	print(before)
	fmt.Println("recommendations for carol after recovery:")
	print(after)
	if len(before) == len(after) && len(before) > 0 && before[0].AdID == after[0].AdID {
		fmt.Println("\nrecovered engine agrees with the original ✔")
	} else {
		fmt.Println("\nMISMATCH — recovery failed")
	}

	// ----- phase 4: torn tail (crash mid-append) -------------------------
	dir, err := os.MkdirTemp("", "caar-recovery")
	must(err)
	defer os.RemoveAll(dir)

	tornPath := filepath.Join(dir, "torn.log")
	// Keep all but the last 10 bytes: the final record is cut mid-write,
	// exactly what a kill -9 or power loss during Append leaves behind.
	must(os.WriteFile(tornPath, full[:len(full)-10], 0o644))

	f, err := os.OpenFile(tornPath, os.O_RDWR, 0o644)
	must(err)
	eng2, err := caar.Restore(caar.DefaultConfig(), bytes.NewReader(snap))
	must(err)
	rstats, err := journal.Recover(f, eng2)
	must(err)
	fmt.Printf("\ntorn-tail recovery: %d applied, torn=%v, truncated to byte %d (%d bytes discarded)\n",
		rstats.Applied, rstats.Torn, rstats.ValidBytes, rstats.DiscardedBytes)
	// Recover left the file positioned at its (now clean) end: appending
	// resumes on the same handle.
	resumed := journal.NewLogged(eng2, journal.NewFileWriter(f, journal.SyncAlways, 0))
	must(resumed.Post("bob", "back online after the crash", morning.Add(2*time.Hour)))
	must(f.Close())

	// ----- phase 5: bit flip (silent media corruption) -------------------
	flippedPath := filepath.Join(dir, "flipped.log")
	damaged := append([]byte(nil), full...)
	damaged[len(damaged)/2] ^= 0x40 // flip one bit in the middle record
	must(os.WriteFile(flippedPath, damaged, 0o644))

	f, err = os.OpenFile(flippedPath, os.O_RDWR, 0o644)
	must(err)
	eng3, err := caar.Restore(caar.DefaultConfig(), bytes.NewReader(snap))
	must(err)
	rstats, err = journal.Recover(f, eng3)
	must(err)
	must(f.Close())
	fmt.Printf("bit-flip recovery: checksum caught the damage, %d of 4 entries survived, %d bytes discarded\n",
		rstats.Applied, rstats.DiscardedBytes)
	fmt.Println("\ndamaged journals recovered without refusing to start ✔")
}

func print(recs []caar.Recommendation) {
	for i, r := range recs {
		fmt.Printf("  %d. %-8s score=%.4f\n", i+1, r.AdID, r.Score)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
