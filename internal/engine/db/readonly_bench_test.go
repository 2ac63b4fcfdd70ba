package db

import (
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/tpcc"
)

// benchReadOnly prices one read-only transaction type on one loaded
// warehouse in a pool that holds it all, under 2pl and mvcc. Its 1024
// inputs are drawn by the Runner's generator before the timer starts, so
// the loop times the transactions alone.
func benchReadOnly[In any](b *testing.B, typ core.TxnType, draw func(*Runner) In, run func(*Session, In) error) {
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
			inputs := make([]In, 1024)
			for i := range inputs {
				rn.prepareArgs(typ)
				inputs[i] = draw(rn)
			}
			s := d.NewSession()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(s, inputs[i%len(inputs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStockLevel prices one Stock-Level: about 400 share locks under
// 2pl, none under mvcc, and two batch reads of about 200 records each.
func BenchmarkStockLevel(b *testing.B) {
	benchReadOnly(b, core.TxnStockLevel,
		func(rn *Runner) StockLevelInput { return rn.args.stockLevel },
		func(s *Session, in StockLevelInput) error { _, err := s.StockLevel(in); return err })
}

// BenchmarkOrderStatus prices one Order-Status, 60 % of them selecting the
// customer by name: the customer (or its name group, in one batch), the
// customer's last order and that order's lines in one batch.
func BenchmarkOrderStatus(b *testing.B) {
	benchReadOnly(b, core.TxnOrderStatus,
		func(rn *Runner) OrderStatusInput { return rn.args.orderStatus },
		func(s *Session, in OrderStatusInput) error { _, err := s.OrderStatus(in); return err })
}
