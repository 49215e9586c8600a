package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"nocsim/internal/app"
)

func TestRecordReplayRoundTrip(t *testing.T) {
	g := New(Config{Profile: app.MustByName("mcf"), Seed: 11})
	// Capture the stream twice from the same seed: once to record, once
	// as the reference.
	ref := New(Config{Profile: app.MustByName("mcf"), Seed: 11})
	var buf bytes.Buffer
	const n = 100_000
	mems, err := Record(&buf, "mcf", g, n)
	if err != nil {
		t.Fatal(err)
	}
	if mems == 0 {
		t.Fatal("no memory references recorded")
	}
	rp, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Name() != "mcf" || rp.Len() != n || rp.MemRefs() != mems {
		t.Fatalf("metadata: name=%q len=%d refs=%d", rp.Name(), rp.Len(), rp.MemRefs())
	}
	for i := 0; i < n; i++ {
		want := ref.Next()
		got := rp.Next()
		if got != want {
			t.Fatalf("instruction %d: got %+v, want %+v", i, got, want)
		}
	}
}

func TestReplayLoops(t *testing.T) {
	g := New(Config{Profile: app.MustByName("mcf"), Seed: 3})
	var buf bytes.Buffer
	const n = 1000
	if _, err := Record(&buf, "mcf", g, n); err != nil {
		t.Fatal(err)
	}
	rp, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]Instr, n)
	for i := range first {
		first[i] = rp.Next()
	}
	if rp.Loops() != 0 {
		t.Fatalf("looped too early: %d", rp.Loops())
	}
	for i := 0; i < n; i++ {
		if got := rp.Next(); got != first[i] {
			t.Fatalf("second pass diverged at %d: %+v vs %+v", i, got, first[i])
		}
	}
	if rp.Loops() != 1 {
		t.Errorf("loops = %d, want 1", rp.Loops())
	}
}

func TestReplayComputeOnlyTrace(t *testing.T) {
	// A trace with no memory references at all: only the tail run.
	var buf bytes.Buffer
	if _, err := Record(&buf, "idle", computeOnly{}, 500); err != nil {
		t.Fatal(err)
	}
	rp, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ { // crosses the loop boundary twice
		if in := rp.Next(); in.IsMem {
			t.Fatal("compute-only trace produced a memory reference")
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("XXXX rest"),
		"truncated": append([]byte(traceMagic), 3, 'm', 'c', 'f'),
		// A tail run of 2^32+5 that would truncate to the header's 5.
		"long run": append(binary.AppendUvarint(append([]byte(traceMagic), 1, 'm', 5), 1<<32+5), 0),
	}
	for name, data := range cases {
		if _, err := ReadTrace(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadTrace accepted corrupt input", name)
		}
	}
}

// FuzzReadTrace feeds ReadTrace arbitrary bytes, seeded from Record
// output: any input must give an error or a Replay that steps 10k
// instructions without panicking.
func FuzzReadTrace(f *testing.F) {
	for _, n := range []int64{1, 1000} {
		var buf bytes.Buffer
		if _, err := Record(&buf, "mcf", New(Config{Profile: app.MustByName("mcf"), Seed: 5}), n); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rp, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 10_000; i++ {
			rp.Next()
		}
	})
}

func TestReadTraceRejectsCountMismatch(t *testing.T) {
	// Record a valid trace then corrupt the header instruction count.
	g := New(Config{Profile: app.MustByName("mcf"), Seed: 7})
	var buf bytes.Buffer
	if _, err := Record(&buf, "m", g, 1000); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// name "m" is at offset 4 (uvarint len=1) + 1; count uvarint starts
	// at offset 6. 1000 encodes as 0xe8 0x07; corrupt it.
	data[6] ^= 0x01
	if _, err := ReadTrace(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "corrupt") {
		t.Errorf("corrupt count accepted or wrong error: %v", err)
	}
}

func TestCompression(t *testing.T) {
	// The format should cost well under 2 bytes/instruction for a
	// memory-heavy app (deltas are small).
	g := New(Config{Profile: app.MustByName("mcf"), Seed: 9})
	var buf bytes.Buffer
	const n = 200_000
	if _, err := Record(&buf, "mcf", g, n); err != nil {
		t.Fatal(err)
	}
	if perInsn := float64(buf.Len()) / n; perInsn > 2 {
		t.Errorf("trace costs %.2f bytes/instruction, want < 2", perInsn)
	}
}

// computeOnly is a Source of pure compute instructions.
type computeOnly struct{}

func (computeOnly) Next() Instr { return Instr{} }

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40), -9223372036854775808, 9223372036854775807} {
		if unzigzag(zigzag(v)) != v {
			t.Errorf("zigzag round trip failed for %d", v)
		}
	}
}

func TestStoreFlagSurvivesRoundTrip(t *testing.T) {
	g := New(Config{Profile: app.MustByName("mcf"), Seed: 33, StoreFrac: 0.4})
	ref := New(Config{Profile: app.MustByName("mcf"), Seed: 33, StoreFrac: 0.4})
	var buf bytes.Buffer
	const n = 50_000
	if _, err := Record(&buf, "mcf", g, n); err != nil {
		t.Fatal(err)
	}
	rp, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	stores := 0
	for i := 0; i < n; i++ {
		want := ref.Next()
		got := rp.Next()
		if got != want {
			t.Fatalf("instruction %d: %+v vs %+v", i, got, want)
		}
		if got.IsStore {
			stores++
		}
	}
	if stores == 0 {
		t.Fatal("no stores exercised")
	}
}
