package chassis_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"nocsim/internal/noc"
	"nocsim/internal/noc/bless"
	"nocsim/internal/noc/buffered"
	"nocsim/internal/noc/chassis"
	"nocsim/internal/noc/hierring"
	"nocsim/internal/snap"
	"nocsim/internal/topology"
	"nocsim/internal/traffic"
)

// fabrics are the 4x4 configurations the codec tests restore into: one
// per fabric.
var fabrics = []struct {
	name string
	new  func() noc.Network
}{
	{"bless", func() noc.Network {
		return bless.New(bless.Config{Topology: topology.NewSquare(topology.Mesh, 4)})
	}},
	{"buffered", func() noc.Network {
		return buffered.New(buffered.Config{Topology: topology.NewSquare(topology.Mesh, 4)})
	}},
	{"hierring", func() noc.Network {
		return hierring.New(hierring.Config{Nodes: 16, GroupSize: 8})
	}},
}

// blob encodes net's state.
func blob(net noc.Network) []byte {
	w := snap.NewWriter()
	snap.Encode(w, net)
	return w.Bytes()
}

// midRun returns a blob of net after cycles of uniform random traffic
// heavy enough to fill pipelines, buffers and NIC queues.
func midRun(net noc.Network, cycles int) []byte {
	inj := traffic.NewInjector(net.Topology().Nodes(), 0.3, traffic.Uniform{Nodes: net.Topology().Nodes()}, 5)
	for i := 0; i < cycles; i++ {
		inj.Step(net)
		net.Step()
	}
	return blob(net)
}

// restore decodes data into a fresh net.
func restore(net noc.Network, data []byte) error {
	r, err := snap.NewReader(data)
	if err != nil {
		return err
	}
	snap.Decode(r, net)
	return r.Err()
}

// craftedCounts returns idle-fabric blobs whose pooled-flit count
// claims 4,194,304 slots on a 4x4 fabric with a few hundred: the bless
// pipeline count (the last word of an idle bless blob) and the
// buffered total (the first word its hook writes).
func craftedCounts(t testing.TB) map[string][]byte {
	const huge = 1 << 22
	bl := bless.New(bless.Config{Topology: topology.NewSquare(topology.Mesh, 4)})
	b := blob(bl)
	binary.LittleEndian.PutUint32(b[len(b)-4:], huge)

	bf := buffered.New(buffered.Config{Topology: topology.NewSquare(topology.Mesh, 4)})
	var hw snap.Writer
	bf.EncodeSnap(&hw)
	u := blob(bf)
	if len(u) < hw.Len() {
		t.Fatal("buffered blob shorter than its hook")
	}
	binary.LittleEndian.PutUint32(u[len(u)-hw.Len():], huge)
	return map[string][]byte{"bless": b, "buffered": u}
}

// TestRestoreBoundsPooledFlits is the regression test for restored
// flit counts: a blob claiming more pooled flits than the fabric can
// hold must fail to decode without growing the flit pool.
func TestRestoreBoundsPooledFlits(t *testing.T) {
	crafted := craftedCounts(t)
	for _, f := range fabrics {
		data, ok := crafted[f.name]
		if !ok {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			net := f.new()
			var m *chassis.Mesh
			switch net := net.(type) {
			case *bless.Fabric:
				m = &net.Mesh
			case *buffered.Fabric:
				m = &net.Mesh
			}
			capBefore := m.Pool.Cap()
			if restore(net, data) == nil {
				t.Fatal("restore of a crafted flit count succeeded")
			}
			if capAfter := m.Pool.Cap(); capAfter != capBefore {
				t.Errorf("pool capacity %d after a failed restore, want %d", capAfter, capBefore)
			}
		})
	}
}

// TestRestoreRoundTrip pins the seeds the fuzz target starts from: a
// mid-run blob of every fabric restores into a fresh fabric of the same
// configuration and re-encodes to the same bytes.
func TestRestoreRoundTrip(t *testing.T) {
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			want := midRun(f.new(), 150)
			net := f.new()
			if err := restore(net, want); err != nil {
				t.Fatal(err)
			}
			if got := blob(net); string(got) != string(want) {
				t.Errorf("re-encoded blob differs (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestRestoreRejectsLinkCount: a blob whose counters carry another
// link count than the fabric was built with must not restore, since
// every later Utilization would divide by it.
func TestRestoreRejectsLinkCount(t *testing.T) {
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			net := f.new()
			data := midRun(net, 50)
			st := net.Stats()
			w := snap.NewWriter()
			snap.Encode(w, &st)
			// Stats encodes Cycles (which Stats reports from the
			// fabric's clock), then Links and the other counters.
			enc := w.Bytes()[snap.NewWriter().Len()+8:]
			at := bytes.Index(data, enc)
			if at < 0 {
				t.Fatal("counters not found in the blob")
			}
			binary.LittleEndian.PutUint64(data[at:], uint64(st.Links+1))
			if err := restore(f.new(), data); err == nil {
				t.Fatal("restore of a foreign link count succeeded")
			}
		})
	}
}

// FuzzFabricRestore feeds arbitrary bytes to every fabric's decoder.
// The bar: an error or a fabric, never a panic, and no allocation
// beyond O(blob + fabric size).
func FuzzFabricRestore(f *testing.F) {
	for _, fb := range fabrics {
		f.Add(midRun(fb.new(), 150))
	}
	crafted := craftedCounts(f)
	f.Add(crafted["bless"])
	f.Add(crafted["buffered"])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fb := range fabrics {
			net := fb.new()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_ = restore(net, data)
			runtime.ReadMemStats(&after)
			// A decoded flit, packet or reassembly entry is at most ~2x
			// its encoding in memory, doubled again by slice growth;
			// the fabric-sized allocations of a 4x4 restore (the pool
			// reservation) fit in the constant.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+1<<20); got > limit {
				t.Fatalf("%s: restore of a %d-byte blob allocated %d bytes (limit %d)", fb.name, len(data), got, limit)
			}
		}
	})
}
