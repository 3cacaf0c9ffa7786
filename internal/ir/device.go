package ir

import "fmt"

// DeviceType enumerates execution devices. The reproduction executes all
// kernels on the host, but the compiler's device-placement analysis (§4.4)
// and the VM's DeviceCopy instruction operate on these logical devices.
type DeviceType uint8

const (
	// DevUnknown is the empty device domain: no placement constraint yet.
	DevUnknown DeviceType = iota
	// DevCPU is the host CPU, the mandatory domain of shape functions.
	DevCPU
	// DevGPU is an accelerator with a host-interaction execution model.
	DevGPU
)

func (d DeviceType) String() string {
	switch d {
	case DevUnknown:
		return "unknown"
	case DevCPU:
		return "cpu"
	case DevGPU:
		return "gpu"
	}
	return fmt.Sprintf("device(%d)", uint8(d))
}

// Device is a concrete device instance, e.g. cpu(0) or gpu(0).
type Device struct {
	Type DeviceType
	ID   int
}

// CPU returns the cpu(id) device.
func CPU(id int) Device { return Device{Type: DevCPU, ID: id} }

// GPU returns the gpu(id) device.
func GPU(id int) Device { return Device{Type: DevGPU, ID: id} }

func (d Device) String() string { return fmt.Sprintf("%s(%d)", d.Type, d.ID) }

// IsUnknown reports whether the device is the unconstrained domain.
func (d Device) IsUnknown() bool { return d.Type == DevUnknown }
