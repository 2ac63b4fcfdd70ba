package db

import (
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/tpcc"
)

// BenchmarkStockLevel prices one Stock-Level transaction on one loaded
// warehouse in a pool that holds it all, under 2pl (about 400 share locks)
// and mvcc (none). Its inputs are drawn by the Runner's generator before the
// timer starts, so the loop times the transaction alone.
func BenchmarkStockLevel(b *testing.B) {
	for _, cc := range []CCMode{CC2PL, CCMVCC} {
		b.Run("cc="+cc.String(), func(b *testing.B) {
			d, err := Open(Config{Warehouses: 1, PageSize: 4096, BufferPages: 32768, CC: cc})
			if err != nil {
				b.Fatal(err)
			}
			if err := d.Load(1); err != nil {
				b.Fatal(err)
			}
			rn := NewRunner(d, 7, tpcc.DefaultMix())
			inputs := make([]StockLevelInput, 1024)
			for i := range inputs {
				rn.prepareArgs(core.TxnStockLevel)
				inputs[i] = rn.args.stockLevel
			}
			s := d.NewSession()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.StockLevel(inputs[i%len(inputs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
