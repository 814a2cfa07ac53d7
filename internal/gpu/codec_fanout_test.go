package gpu_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"gsnp/internal/gpu"
	"gsnp/internal/snpio"
)

// TestBlockWriterFannedOutLaunches runs the output codec the way a large
// window would on a many-core host: the block writer's column goroutines
// launch concurrently and every launch is spread over helper goroutines —
// dict_mark among them, whose lanes store to shared slots of the presence
// table. The container must equal the CPU writer's and the device must run
// one program, launch for launch and counter for counter, at every
// GOMAXPROCS. It stands beside snpio's TestBlockWriterGPUConcurrentColumns
// but lives here, where a test can force the fan-out.
func TestBlockWriterFannedOutLaunches(t *testing.T) {
	rows := make([]snpio.Row, 4000)
	for i := range rows {
		depth, qual := uint16(5+i/13%10), uint8(20+i/17*7%40)
		rows[i] = snpio.Row{
			Chr: "chr7", Pos: int64(i + 1), Ref: 'A', Genotype: 'A',
			Quality: qual, BestBase: 'A', AvgQualBest: qual - 5,
			CountBest: depth, CountUniqBest: depth - 1,
			SecondBase: 'N', Depth: depth, RankSumP: 1, CopyNum: 1.001,
		}
		snpio.QuantizeRow(&rows[i])
	}
	write := func(w *snpio.BlockWriter, buf *bytes.Buffer) []byte {
		if err := w.WriteBlock(rows); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var cpu bytes.Buffer
	want := write(snpio.NewBlockWriter(&cpu), &cpu)

	type deviceProgram struct {
		counters gpu.Stats
		launches map[string]int
	}
	encode := func(procs int) deviceProgram {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		d := gpu.NewDevice(gpu.M2050())
		d.ForceWorkers(3)
		var buf bytes.Buffer
		if got := write(snpio.NewBlockWriterGPU(&buf, d), &buf); !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: GPU-compressed container differs from the CPU-compressed one", procs)
		}
		p := deviceProgram{counters: d.Stats(), launches: map[string]int{}}
		p.counters.SimSeconds = 0 // a float sum in host-schedule order
		for _, ls := range d.Launches() {
			p.launches[ls.Name]++
		}
		return p
	}
	serial := encode(1)
	if serial.launches["dict_mark"] == 0 {
		t.Fatalf("no column built its dictionary from a presence table: %v", serial.launches)
	}
	for _, procs := range []int{2, 4} {
		if got := encode(procs); !reflect.DeepEqual(got, serial) {
			t.Errorf("GOMAXPROCS=%d: device program differs from the serial encode:\n got %+v\nwant %+v", procs, got, serial)
		}
	}
}
