package gpu

// ForceWorkers lets this directory's external tests pin the host goroutine
// count of every launch (see Device.forceWorkers).
func (d *Device) ForceWorkers(n int) { d.forceWorkers = n }
