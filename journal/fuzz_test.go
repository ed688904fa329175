package journal

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	caar "caar"
)

// FuzzDecodeLine throws arbitrary bytes at the frame decoder. Three
// properties: decodeLine never panics on hostile input, never accepts a line
// without a frame and a matching checksum, and a correctly framed payload
// always round-trips — the same encoding Append writes.
func FuzzDecodeLine(f *testing.F) {
	f.Add([]byte(`{"op":"add_user","user":"a"}`))
	f.Add([]byte(`j2 5 00000000 hello`))
	f.Add([]byte(`j2`))
	f.Add([]byte(`j2 999 deadbeef short`))
	f.Add([]byte(``))
	f.Add([]byte(`j2 0 00000000 `))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Hostile input: must classify, never panic. When it does decode a
		// line, the line is framed and the payload carries a matching checksum.
		if payload, err := decodeLine(data); err == nil {
			rest, isFramed := bytes.CutPrefix(data, []byte(framePrefix))
			if !isFramed {
				t.Fatalf("decodeLine accepted an unframed line %q", data)
			}
			_, rest, _ = bytes.Cut(rest, []byte{' '})
			crcField, _, _ := bytes.Cut(rest, []byte{' '})
			want := fmt.Sprintf("%08x", crc32.Checksum(payload, castagnoli))
			// The checksum field may use upper/shorter hex spellings of the
			// same value; re-encode both for comparison.
			if got := fmt.Sprintf("%08x", mustHex(t, string(crcField))); got != want {
				t.Fatalf("decodeLine accepted frame with checksum %s, payload sums to %s", got, want)
			}
		}

		// Round-trip: frame the payload exactly as Append does.
		line := bytes.TrimSuffix([]byte(framed(string(data))), []byte("\n"))
		payload, err := decodeLine(line)
		if err != nil {
			t.Fatalf("decodeLine rejected a well-formed frame: %v", err)
		}
		if !bytes.Equal(payload, data) {
			t.Fatalf("round-trip mismatch: wrote %q, decoded %q", data, payload)
		}
	})
}

func mustHex(t *testing.T, s string) uint32 {
	t.Helper()
	var v uint32
	if _, err := fmt.Sscanf(s, "%x", &v); err != nil {
		t.Fatalf("decodeLine accepted unparsable checksum field %q", s)
	}
	return v
}

// FuzzRecoverTornTail appends arbitrary garbage after a valid journal and
// checks the crash-recovery invariants: Recover never fails on a torn tail,
// replays every intact record, and truncates the file back to a state a
// second Recover fully accepts.
func FuzzRecoverTornTail(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("j2 "))
	f.Add([]byte(`{"op":"add_user","user":"x"`))
	f.Add([]byte("j2 28 00000000 {\"op\":\"add_user\",\"user\":\"b\"}\n"))
	f.Add([]byte("\n\n\n"))
	f.Fuzz(func(t *testing.T, tail []byte) {
		var log bytes.Buffer
		w := NewWriter(&log)
		valid := []Entry{
			{Op: OpAddUser, User: "alice"},
			{Op: OpAddUser, User: "bob"},
			{Op: OpFollow, User: "alice", Followee: "bob"},
		}
		for _, e := range valid {
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		intactLen := int64(log.Len())

		path := filepath.Join(t.TempDir(), "journal.log")
		if err := os.WriteFile(path, append(log.Bytes(), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		fh, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()

		eng, err := caar.Open(caar.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		stats, err := Recover(fh, eng)
		if err != nil {
			t.Fatalf("Recover failed on torn tail %q: %v", tail, err)
		}
		if stats.Applied < len(valid) {
			t.Fatalf("recovered %d of %d intact records (tail %q)", stats.Applied, len(valid), tail)
		}
		if stats.ValidBytes < intactLen {
			t.Fatalf("ValidBytes %d < intact prefix %d", stats.ValidBytes, intactLen)
		}
		if eng.Stats().Users != 2 {
			t.Fatalf("engine state wrong after recover: %+v", eng.Stats())
		}

		// The truncated file must now be fully valid: a second recovery
		// accepts every byte and discards nothing.
		eng2, err := caar.Open(caar.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		stats2, err := Recover(fh, eng2)
		if err != nil {
			t.Fatalf("second Recover failed after truncation: %v", err)
		}
		if stats2.DiscardedBytes != 0 || stats2.Torn {
			t.Fatalf("truncated journal still torn: %+v", stats2)
		}
		if stats2.Applied != stats.Applied {
			t.Fatalf("second recovery applied %d, first %d", stats2.Applied, stats.Applied)
		}
	})
}

// FuzzAppendBatchRecover drives group commit with fuzz-chosen batch sizes
// and payloads, then crash-truncates the file at a fuzz-chosen offset.
// Invariants: Recover never errors, every record before the cut replays
// (batches are framed identically to single appends — no torn frames except
// the one the cut landed in), and the truncated file is fully valid on a
// second recovery.
func FuzzAppendBatchRecover(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint16(0))
	f.Add([]byte{8, 8}, uint16(5))
	f.Add([]byte{0, 255, 1}, uint16(40))
	f.Fuzz(func(t *testing.T, sizes []byte, cut uint16) {
		if len(sizes) > 8 {
			sizes = sizes[:8]
		}
		var log bytes.Buffer
		w := NewWriter(&log)
		total := 0
		for bi, s := range sizes {
			n := int(s)%7 + 1 // batch sizes 1..7
			batch := make([]Entry, n)
			for i := range batch {
				batch[i] = Entry{Op: OpAddUser, User: fmt.Sprintf("b%d-i%d-s%d", bi, i, s)}
			}
			if err := w.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			total += n
		}
		raw := log.Bytes()
		keep := len(raw)
		if keep > 0 {
			keep -= int(cut) % (len(raw) + 1)
		}

		path := filepath.Join(t.TempDir(), "journal.log")
		if err := os.WriteFile(path, raw[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		fh, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()

		eng, err := caar.Open(caar.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		stats, err := Recover(fh, eng)
		if err != nil {
			t.Fatalf("Recover failed after cut at %d/%d: %v", keep, len(raw), err)
		}
		if stats.Applied > total {
			t.Fatalf("recovered %d records, only %d written", stats.Applied, total)
		}
		if stats.Skipped != 0 {
			t.Fatalf("unique-user batch records skipped: %+v", stats)
		}
		if eng.Stats().Users != stats.Applied {
			t.Fatalf("engine has %d users, %d records applied", eng.Stats().Users, stats.Applied)
		}
		// Count intact frames in the kept prefix (one complete frame per
		// newline; a trailing partial frame is the one legitimately lost).
		// Every intact frame must replay.
		intact := bytes.Count(raw[:keep], []byte("\n"))
		if stats.Applied < intact {
			t.Fatalf("only %d of %d intact frames replayed (cut %d)", stats.Applied, intact, keep)
		}

		// The truncated file must be fully valid on a second pass.
		eng2, err := caar.Open(caar.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		stats2, err := Recover(fh, eng2)
		if err != nil {
			t.Fatalf("second Recover failed: %v", err)
		}
		if stats2.DiscardedBytes != 0 || stats2.Torn || stats2.Applied != stats.Applied {
			t.Fatalf("truncated journal not clean: %+v vs %+v", stats2, stats)
		}
	})
}
