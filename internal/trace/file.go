package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// This file implements a compact on-disk instruction-trace format, the
// analogue of the paper's PinPoints methodology: capture a
// representative execution slice once, then replay it in the CPU model
// during simulation (§6.1). A recorded trace decouples workload
// generation from simulation and makes runs byte-for-byte reproducible
// across machines.
//
// Format (little endian):
//
//	magic   [4]byte  "NTR1"
//	name    uvarint length + bytes (application name)
//	insns   uvarint  total instruction count
//	records: repeated (computeRun uvarint, memFlag byte, addr uvarint)
//	         computeRun compute instructions followed, when memFlag is
//	         1 (load) or 2 (store), by one memory reference at addr.
//	         memFlag==0 terminates the stream (trailing compute run
//	         only).
//
// Addresses are delta-encoded against the previous memory address
// (zig-zag), which makes hot-set revisits and sequential streams cheap.

const traceMagic = "NTR1"

// Record writes n instructions drawn from src to w in trace format,
// labelled with name. It returns the number of memory references
// recorded.
func Record(w io.Writer, name string, src Source, n int64) (int64, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return 0, err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		k := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:k])
		return err
	}
	if err := putUvarint(uint64(len(name))); err != nil {
		return 0, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return 0, err
	}
	if err := putUvarint(uint64(n)); err != nil {
		return 0, err
	}
	var run uint64
	var mems int64
	prev := uint64(0)
	for i := int64(0); i < n; i++ {
		in := src.Next()
		if !in.IsMem {
			run++
			continue
		}
		mems++
		if err := putUvarint(run); err != nil {
			return mems, err
		}
		flag := byte(1)
		if in.IsStore {
			flag = 2
		}
		if err := bw.WriteByte(flag); err != nil {
			return mems, err
		}
		if err := putUvarint(zigzag(int64(in.Addr) - int64(prev))); err != nil {
			return mems, err
		}
		prev = in.Addr
		run = 0
	}
	if err := putUvarint(run); err != nil {
		return mems, err
	}
	if err := bw.WriteByte(0); err != nil {
		return mems, err
	}
	return mems, bw.Flush()
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Source produces instructions; *Generator and *Replay both implement
// it, so the CPU model can run from either.
type Source interface {
	Next() Instr
}

// record is one decoded trace record.
type record struct {
	run   uint32 // compute instructions before the reference
	addr  uint64
	store bool
}

// Replay replays a recorded trace, looping when it reaches the end
// (the paper replays representative slices for the whole simulation).
type Replay struct {
	name    string
	insns   int64
	records []record
	tailRun uint32

	// iteration state
	idx     int
	inRun   uint32
	atTail  bool
	tailPos uint32
	looped  int64
}

// ReadTrace decodes a trace written by Record.
func ReadTrace(r io.Reader) (*Replay, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, errors.New("trace: bad magic (not a trace file)")
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: name length: %w", err)
	}
	if nameLen > 4096 {
		return nil, errors.New("trace: unreasonable name length")
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, fmt.Errorf("trace: name: %w", err)
	}
	insns, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: instruction count: %w", err)
	}
	t := &Replay{name: string(nameBuf), insns: int64(insns)}
	prev := uint64(0)
	for {
		run, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: run length: %w", err)
		}
		if run > math.MaxUint32 {
			return nil, fmt.Errorf("trace: run length %d over 2^32-1", run)
		}
		flag, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: record flag: %w", err)
		}
		if flag == 0 {
			t.tailRun = uint32(run)
			break
		}
		if flag > 2 {
			return nil, fmt.Errorf("trace: unknown record flag %d", flag)
		}
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: address: %w", err)
		}
		addr := uint64(int64(prev) + unzigzag(delta))
		prev = addr
		t.records = append(t.records, record{run: uint32(run), addr: addr, store: flag == 2})
	}
	// Sanity: records must account for exactly `insns` instructions.
	var total int64 = int64(t.tailRun)
	for _, rec := range t.records {
		total += int64(rec.run) + 1
	}
	if total != t.insns {
		return nil, fmt.Errorf("trace: corrupt: %d instructions recorded, header says %d", total, t.insns)
	}
	if t.insns == 0 {
		return nil, errors.New("trace: empty trace")
	}
	return t, nil
}

// Name returns the recorded application name.
func (t *Replay) Name() string { return t.name }

// Len returns the instructions per loop iteration.
func (t *Replay) Len() int64 { return t.insns }

// MemRefs returns the memory references per loop iteration.
func (t *Replay) MemRefs() int64 { return int64(len(t.records)) }

// Loops returns how many times the trace has wrapped.
func (t *Replay) Loops() int64 { return t.looped }

// Next returns the next instruction, looping at the end of the trace.
func (t *Replay) Next() Instr {
	for {
		if t.atTail {
			if t.tailPos < t.tailRun {
				t.tailPos++
				return Instr{}
			}
			// Wrap around.
			t.atTail = false
			t.tailPos = 0
			t.idx = 0
			t.inRun = 0
			t.looped++
			continue
		}
		if t.idx >= len(t.records) {
			t.atTail = true
			continue
		}
		rec := &t.records[t.idx]
		if t.inRun < rec.run {
			t.inRun++
			return Instr{}
		}
		t.idx++
		t.inRun = 0
		return Instr{IsMem: true, IsStore: rec.store, Addr: rec.addr}
	}
}
