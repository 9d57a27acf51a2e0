package radio

// UseLinearScan switches m to the reference linear scan: it drops the
// spatial index, so carrier sense and delivery walk every registered
// radio in registration order from then on. Valid at any point after
// construction, because the linear path reads only m.radios, which
// registration keeps whatever the mode.
func UseLinearScan(m *Medium) { m.idx = nil }

// Indexed reports whether m still queries its spatial index, so an
// equivalence test can assert that its switch took effect.
func Indexed(m *Medium) bool { return m.idx != nil }
