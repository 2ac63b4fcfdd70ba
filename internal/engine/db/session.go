package db

// Session is a reusable execution context for the five TPC-C procedures.
// It owns one txn value whose scratch memory (undo list, tuple buffers,
// range-scan collectors) is recycled across
// transactions, making the committed execute path allocation-free after
// warm-up. A Session is single-threaded: each worker goroutine uses its
// own (the Runner holds one per worker).
//
// The DB-level procedure methods remain for callers without a worker
// structure; they borrow a Session from the DB's free list.
type Session struct {
	d *DB
	t txn
}

// NewSession returns a fresh execution context over d.
func (d *DB) NewSession() *Session { return &Session{d: d} }

// begin starts a transaction on the session's recycled txn value.
func (s *Session) begin() *txn {
	s.t.reset(s.d)
	return &s.t
}

func (d *DB) getSession() *Session {
	d.sessMu.Lock()
	defer d.sessMu.Unlock()
	if n := len(d.sessions); n > 0 {
		s := d.sessions[n-1]
		d.sessions = d.sessions[:n-1]
		return s
	}
	return d.NewSession()
}

func (d *DB) putSession(s *Session) {
	d.sessMu.Lock()
	d.sessions = append(d.sessions, s)
	d.sessMu.Unlock()
}

// NewOrder executes the New-Order transaction on a pooled session.
func (d *DB) NewOrder(in NewOrderInput) (NewOrderResult, error) {
	s := d.getSession()
	res, err := s.NewOrder(in)
	d.putSession(s)
	return res, err
}

// Payment executes the Payment transaction on a pooled session.
func (d *DB) Payment(in PaymentInput) error {
	s := d.getSession()
	err := s.Payment(in)
	d.putSession(s)
	return err
}

// OrderStatus executes the Order-Status transaction on a pooled session.
func (d *DB) OrderStatus(in OrderStatusInput) (OrderStatusResult, error) {
	s := d.getSession()
	res, err := s.OrderStatus(in)
	d.putSession(s)
	return res, err
}

// Delivery executes the Delivery transaction on a pooled session.
func (d *DB) Delivery(in DeliveryInput) (DeliveryResult, error) {
	s := d.getSession()
	res, err := s.Delivery(in)
	d.putSession(s)
	return res, err
}

// StockLevel executes the Stock-Level transaction on a pooled session.
func (d *DB) StockLevel(in StockLevelInput) (int, error) {
	s := d.getSession()
	res, err := s.StockLevel(in)
	d.putSession(s)
	return res, err
}
