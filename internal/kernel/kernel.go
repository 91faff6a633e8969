package kernel

import (
	"errors"
	"fmt"
	"sync"

	"freepart.dev/freepart/internal/mem"
	"freepart.dev/freepart/internal/vclock"
)

// ErrSyscallDenied is returned (wrapped) when a seccomp filter blocks a
// syscall in ActionErrno mode, or alongside a kill in ActionKill mode.
var ErrSyscallDenied = errors.New("kernel: syscall denied by seccomp filter")

// ErrProcessDead is returned when a syscall is attempted by a process that
// is not running.
var ErrProcessDead = errors.New("kernel: process is not running")

// SyscallFault is an injected outcome for one syscall. The zero value means
// "proceed normally".
type SyscallFault struct {
	// Transient makes the syscall fail with an EINTR/EAGAIN-class error;
	// the kernel restarts it (charging syscall cost again), as libc does
	// under SA_RESTART.
	Transient bool
	// Crash kills the issuing process mid-syscall.
	Crash bool
	// Stall charges extra virtual time (a slow device) before completing.
	Stall vclock.Duration
	// Reason annotates the fault in process state and errors.
	Reason string
}

// FaultInjector is consulted on every syscall entry. Implemented by the
// chaos engine; the kernel calls it outside its own locks.
type FaultInjector interface {
	OnSyscall(p *Process, call Sysno) SyscallFault
}

// Kernel is the simulated operating system: it owns all processes, the
// filesystem, devices, and the virtual clock, and mediates every syscall.
type Kernel struct {
	Clock *vclock.Clock
	Cost  vclock.CostModel
	FS    *FS
	Net   *Network
	GUI   *GUI

	mu      sync.Mutex
	procs   map[PID]*Process
	nextPID PID
	cameras map[string]*Camera
	inject  FaultInjector
}

// New creates a kernel with empty filesystem, devices, and a fresh clock.
func New() *Kernel {
	return &Kernel{
		Clock:   vclock.New(),
		Cost:    vclock.Default(),
		FS:      NewFS(),
		Net:     NewNetwork(),
		GUI:     NewGUI(),
		procs:   make(map[PID]*Process),
		nextPID: 1,
		cameras: make(map[string]*Camera),
	}
}

// AddCamera registers a camera device under its label.
func (k *Kernel) AddCamera(c *Camera) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.cameras[c.Label()] = c
}

// Camera returns the camera registered under label.
func (k *Kernel) Camera(label string) (*Camera, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	c, ok := k.cameras[label]
	return c, ok
}

// Spawn creates a running process with a fresh address space and an
// uninstalled (permissive) filter, charging process-creation cost.
func (k *Kernel) Spawn(name string) *Process {
	k.mu.Lock()
	pid := k.nextPID
	k.nextPID++
	p := &Process{
		pid:      pid,
		name:     name,
		space:    mem.NewSpace(),
		filter:   NewFilter(),
		state:    StateRunning,
		sysCount: make(map[Sysno]uint64),
	}
	k.procs[pid] = p
	k.mu.Unlock()
	k.Clock.Advance(k.Cost.ProcessSpawn)
	return p
}

// SpawnDomain creates a running process that *shares* host's address space
// — the kernel-side substrate of an ERIM-style MPK protection domain. The
// domain gets its own pid (so object refs stay unambiguous) and its own
// permissive filter (MPK offers no per-domain seccomp), but no new memory:
// containment comes entirely from protection keys. Setup charges one
// mprotect-class cost (pkey_alloc + tagging), not a process spawn — creating
// a domain is three orders of magnitude cheaper than forking an agent.
func (k *Kernel) SpawnDomain(name string, host *Process) *Process {
	k.mu.Lock()
	pid := k.nextPID
	k.nextPID++
	p := &Process{
		pid:      pid,
		name:     name,
		space:    host.Space(),
		filter:   NewFilter(),
		state:    StateRunning,
		sysCount: make(map[Sysno]uint64),
	}
	k.procs[pid] = p
	k.mu.Unlock()
	k.Clock.Advance(k.Cost.MProtect)
	return p
}

// Process looks up a process by pid.
func (k *Kernel) Process(pid PID) (*Process, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.procs[pid]
	return p, ok
}

// Processes returns all processes in spawn order.
func (k *Kernel) Processes() []*Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Process, 0, len(k.procs))
	for pid := PID(1); pid < k.nextPID; pid++ {
		if p, ok := k.procs[pid]; ok {
			out = append(out, p)
		}
	}
	return out
}

// Crash transitions a process to StateCrashed (e.g. a memory fault or a
// DoS exploit landed inside it).
func (k *Kernel) Crash(p *Process, reason string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == StateRunning {
		p.state = StateCrashed
		p.reason = reason
	}
}

// Kill terminates a process (seccomp violation or explicit kill).
func (k *Kernel) Kill(p *Process, reason string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == StateRunning {
		p.state = StateKilled
		p.reason = reason
	}
}

// Exit marks a clean process exit.
func (k *Kernel) Exit(p *Process) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == StateRunning {
		p.state = StateExited
		p.reason = "exit(0)"
	}
}

// Restart revives a crashed or killed process with a brand-new address
// space. Per §6, memory contents of the old incarnation are intentionally
// discarded (they may hold a malicious payload). The filter is replaced by
// a fresh permissive one; the supervisor must re-apply restrictions.
func (k *Kernel) Restart(p *Process) {
	p.mu.Lock()
	p.space = mem.NewSpace()
	p.filter = NewFilter()
	p.state = StateRunning
	p.reason = ""
	p.restarts++
	p.mu.Unlock()
	k.Clock.Advance(k.Cost.ProcessSpawn)
}

// SetInjector installs (or clears, with nil) the syscall fault injector.
func (k *Kernel) SetInjector(i FaultInjector) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.inject = i
}

func (k *Kernel) injector() FaultInjector {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.inject
}

// maxTransientRestarts bounds how many consecutive injected transient
// failures the kernel will restart one syscall through before giving up —
// the analogue of a libc retry loop that eventually surfaces EINTR.
const maxTransientRestarts = 8

// Syscall dispatches one system call by process p against an optional
// fd-scoped resource label. It charges syscall (and, when a filter is
// installed, seccomp-evaluation) cost, updates accounting, and enforces the
// filter. On violation with ActionKill the process dies.
func (k *Kernel) Syscall(p *Process, call Sysno, label string) error {
	if inj := k.injector(); inj != nil {
		f := inj.OnSyscall(p, call)
		for n := 0; f.Transient && n < maxTransientRestarts; n++ {
			// EINTR/EAGAIN: the call is restarted, paying entry cost again.
			k.Clock.Advance(k.Cost.Syscall)
			f = inj.OnSyscall(p, call)
		}
		if f.Stall > 0 {
			k.Clock.Advance(f.Stall)
		}
		if f.Crash {
			reason := f.Reason
			if reason == "" {
				reason = fmt.Sprintf("injected crash in %s", call)
			}
			k.Crash(p, reason)
			return fmt.Errorf("%w: %s crashed in %s (%s)", ErrProcessDead, p.Name(), call, reason)
		}
	}
	p.mu.Lock()
	if p.state != StateRunning {
		p.mu.Unlock()
		return fmt.Errorf("%w: %s attempted %s", ErrProcessDead, p.name, call)
	}
	f := p.filter
	p.sysCount[call]++
	installed := f.Installed()
	allowed := f.Allowed(call, label)
	if !allowed {
		p.denials = append(p.denials, Denial{Call: call, Label: label})
	}
	p.mu.Unlock()

	k.Clock.Advance(k.Cost.Syscall)
	if installed {
		k.Clock.Advance(k.Cost.SeccompCheck)
	}
	if allowed {
		return nil
	}
	if f.Action() == ActionKill {
		k.Kill(p, fmt.Sprintf("seccomp: %s(%s) denied", call, label))
		return fmt.Errorf("%w: %s(%s) by %s (killed)", ErrSyscallDenied, call, label, p.name)
	}
	return fmt.Errorf("%w: %s(%s) by %s", ErrSyscallDenied, call, label, p.name)
}

// syscalls issues a sequence of non-fd-scoped syscalls, stopping on the
// first failure.
func (k *Kernel) syscalls(p *Process, calls ...Sysno) error {
	for _, c := range calls {
		if err := k.Syscall(p, c, ""); err != nil {
			return err
		}
	}
	return nil
}

// FileRead performs the openat/fstat/read/lseek/close sequence a data-
// loading API issues (Fig. 12) and returns the file contents, charging
// device-read cost per byte.
func (k *Kernel) FileRead(p *Process, path string) ([]byte, error) {
	if err := k.syscalls(p, SysOpenat, SysFstat, SysRead, SysLseek, SysClose); err != nil {
		return nil, err
	}
	data, err := k.FS.ReadFile(path)
	if err != nil {
		return nil, err
	}
	k.Clock.Advance(k.Cost.DeviceReadCost(len(data)))
	return data, nil
}

// FileWrite performs the openat/write/close sequence a storing API issues.
func (k *Kernel) FileWrite(p *Process, path string, data []byte) error {
	if err := k.syscalls(p, SysOpenat, SysWrite, SysClose); err != nil {
		return err
	}
	k.FS.WriteFile(path, data)
	k.Clock.Advance(k.Cost.DeviceReadCost(len(data)))
	return nil
}

// FileAppend appends to a file through write syscalls.
func (k *Kernel) FileAppend(p *Process, path string, data []byte) error {
	if err := k.syscalls(p, SysOpenat, SysLseek, SysWrite, SysClose); err != nil {
		return err
	}
	k.FS.AppendFile(path, data)
	k.Clock.Advance(k.Cost.DeviceReadCost(len(data)))
	return nil
}

// CameraRead fetches the next frame from the camera registered under label,
// issuing the ioctl/select/read sequence of VideoCapture::read (Fig. 12).
// The ioctl is fd-scoped to the camera's label.
func (k *Kernel) CameraRead(p *Process, label string) ([]byte, bool, error) {
	cam, ok := k.Camera(label)
	if !ok {
		return nil, false, fmt.Errorf("kernel: no camera %q", label)
	}
	if err := k.Syscall(p, SysIoctl, label); err != nil {
		return nil, false, err
	}
	if err := k.Syscall(p, SysSelect, label); err != nil {
		return nil, false, err
	}
	if err := k.Syscall(p, SysRead, ""); err != nil {
		return nil, false, err
	}
	frame, ok := cam.Read()
	if !ok {
		return nil, false, nil
	}
	k.Clock.Advance(k.Cost.DeviceReadCost(len(frame)))
	return frame, true, nil
}

// CameraOpen issues the VideoCapture constructor syscall sequence.
func (k *Kernel) CameraOpen(p *Process, label string) error {
	if _, ok := k.Camera(label); !ok {
		return fmt.Errorf("kernel: no camera %q", label)
	}
	if err := k.syscalls(p, SysOpenat, SysClose); err != nil {
		return err
	}
	if err := k.Syscall(p, SysIoctl, label); err != nil {
		return err
	}
	return k.Syscall(p, SysMmap, "")
}

// NetConnect opens a connection to host; connect is fd-scoped by host label.
func (k *Kernel) NetConnect(p *Process, host string) error {
	if err := k.Syscall(p, SysSocket, ""); err != nil {
		return err
	}
	if err := k.Syscall(p, SysConnect, host); err != nil {
		return err
	}
	k.Net.Connect(host)
	return nil
}

// NetSend transmits data to host (sendto syscall + copy cost). The
// transmission is recorded for exfiltration analysis.
func (k *Kernel) NetSend(p *Process, host string, data []byte) error {
	if err := k.Syscall(p, SysSendto, ""); err != nil {
		return err
	}
	k.Net.Send(p.PID(), host, data)
	k.Clock.Advance(k.Cost.CopyCost(len(data)))
	return nil
}

// NetRecv receives queued inbound data from host.
func (k *Kernel) NetRecv(p *Process, host string) ([]byte, bool, error) {
	if err := k.Syscall(p, SysRecvfrom, ""); err != nil {
		return nil, false, err
	}
	data, ok := k.Net.Recv(host)
	if ok {
		k.Clock.Advance(k.Cost.CopyCost(len(data)))
	}
	return data, ok, nil
}

// GUIHost is the fd-scope label of the GUI subsystem socket.
const GUIHost = "host:gui"

// GUIShow displays nbytes in the named window. First use per process would
// issue connect (modelled by callers during init); steady-state issues
// select+sendto as X11/GTK clients do.
func (k *Kernel) GUIShow(p *Process, window string, nbytes int) error {
	if err := k.Syscall(p, SysSelect, GUIHost); err != nil {
		return err
	}
	if err := k.Syscall(p, SysSendto, ""); err != nil {
		return err
	}
	k.GUI.Show(window)
	k.Clock.Advance(k.Cost.CopyCost(nbytes))
	return nil
}

// GUIOp performs a non-paint window operation (move, retitle, poll, ...).
func (k *Kernel) GUIOp(p *Process, op, window string) error {
	if err := k.Syscall(p, SysSelect, GUIHost); err != nil {
		return err
	}
	if err := k.Syscall(p, SysSendto, ""); err != nil {
		return err
	}
	if op == "destroyAll" {
		k.GUI.DestroyAll()
	}
	return nil
}

// GUIConnect performs the one-time GUI socket setup (§4.4.1: connect is
// required only during the first execution of a visualizing API).
func (k *Kernel) GUIConnect(p *Process) error {
	return k.NetConnect(p, GUIHost)
}

// MProtect changes page permissions in the process's own address space via
// the mprotect syscall, charging per-page cost. This is the only sanctioned
// way for runtime code to flip permissions, so a seccomp filter that denies
// SysMprotect blocks code-rewrite attacks exactly as in §3.2.
func (k *Kernel) MProtect(p *Process, r mem.Region, perm mem.Perm) error {
	if err := k.Syscall(p, SysMprotect, ""); err != nil {
		return err
	}
	pages, err := p.Space().ProtectRegion(r, perm)
	if err != nil {
		return err
	}
	k.Clock.Advance(k.Cost.MProtect + vclock.Duration(pages)*k.Cost.PageTouch)
	return nil
}
