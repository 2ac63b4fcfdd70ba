package model

import (
	"tpccmodel/internal/core"
	"tpccmodel/internal/sim"
)

// DemandsFromCurve builds the per-transaction demand vector from a buffer
// simulation at evaluation capacity index capIdx: the Table 4 call counts
// plus the measured per-type physical read counts. This is the paper's
// coupling of the buffer model to the throughput model.
func DemandsFromCurve(res *sim.CurveResult, capIdx int) Demands {
	var ios [core.NumTxnTypes]float64
	for t := range ios {
		ios[t] = res.TxnIOs(core.TxnType(t), capIdx)
	}
	return StaticDemands(ios)
}

// AnalyticMissRates are the per-relation miss rates the paper's printed
// Table 4 uses symbolically: mc (customer), mi (item), ms (stock), mo
// (order), ml (order-line), mno (new-order). Warehouse and district are
// omitted as always negligible.
type AnalyticMissRates struct {
	MC, MI, MS, MO, ML, MNO float64
}

// AnalyticReadIOs approximates per-transaction read I/Os from overall
// per-relation miss rates, following the printed Table 4 row shapes:
//
//	New-Order:    mc + 10(mi + ms)
//	Payment:      2.2 mc
//	Order-Status: 2.2 mc + mo + 10 ml
//	Delivery:     10(mno + mo + 10 ml + mc)
//	Stock-Level:  200 ml + 200 ms
//
// The simulation-measured TxnIOs path is more faithful (it uses the
// per-transaction-type miss rates the paper says it collected "in
// isolation"); this analytic form exists to reproduce Table 4 as printed
// and for quick what-if studies without a simulation run.
func AnalyticReadIOs(m AnalyticMissRates) [core.NumTxnTypes]float64 {
	var ios [core.NumTxnTypes]float64
	ios[core.TxnNewOrder] = m.MC + 10*(m.MI+m.MS)
	ios[core.TxnPayment] = 2.2 * m.MC
	ios[core.TxnOrderStatus] = 2.2*m.MC + m.MO + 10*m.ML
	ios[core.TxnDelivery] = 10 * (m.MNO + m.MO + 10*m.ML + m.MC)
	ios[core.TxnStockLevel] = 200*m.ML + 200*m.MS
	return ios
}
