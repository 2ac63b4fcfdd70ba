package db

import (
	"fmt"
	"hash/fnv"
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/tpcc"
)

// TestRunnerDrawSequenceGolden pins the terminal's input stream: the hash
// of the first 5000 (type, input) pairs a Runner prepares. The engine
// benchmark's frozen state hashes depend on this stream at W=1; W=4 adds
// the remote-warehouse draw, which W=1 never makes. The constants were
// recorded before the Runner learnt to drive anything but a *DB.
func TestRunnerDrawSequenceGolden(t *testing.T) {
	cases := []struct {
		seed       uint64
		warehouses int
		want       uint64
	}{
		{7, 1, 0x9e7edda950273003},
		{7, 4, 0x6c4cd4f73fa53d6d},
		{1993, 1, 0xf8d7705425698bd2},
		{1993, 4, 0x722cfbea86b088eb},
	}
	for _, tc := range cases {
		// An unloaded DB: prepareArgs reads the warehouse count and nothing else.
		rn := NewRunner(&DB{cfg: Config{Warehouses: tc.warehouses}}, tc.seed, tpcc.DefaultMix())
		h := fnv.New64a()
		for i := 0; i < 5000; i++ {
			typ := rn.pickType()
			rn.prepareArgs(typ)
			switch typ {
			case core.TxnNewOrder:
				fmt.Fprintf(h, "%d %+v\n", typ, rn.args.newOrder)
			case core.TxnPayment:
				fmt.Fprintf(h, "%d %+v\n", typ, rn.args.payment)
			case core.TxnOrderStatus:
				fmt.Fprintf(h, "%d %+v\n", typ, rn.args.orderStatus)
			case core.TxnDelivery:
				fmt.Fprintf(h, "%d %+v\n", typ, rn.args.delivery)
			case core.TxnStockLevel:
				fmt.Fprintf(h, "%d %+v\n", typ, rn.args.stockLevel)
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("seed %d, W=%d: draw sequence hash %#x, want %#x", tc.seed, tc.warehouses, got, tc.want)
		}
	}
}
