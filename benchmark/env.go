package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"

	"rbcsalted/internal/core"
)

// environment records where and on what a run was made.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	// The Keccak kernel picks its ISA path from these CPU flags (the
	// probe itself is unexported, so the path is inferred: AVX-512 needs
	// avx512f and avx512vl, else AVX2, else portable).
	AVX2      bool   `json:"avx2"`
	AVX512F   bool   `json:"avx512f"`
	AVX512VL  bool   `json:"avx512vl"`
	KeccakISA string `json:"keccak_isa_inferred"`
	Kernel    string `json:"default_kernel_sha3"`

	DataRoot   string `json:"data_root"`
	DataRootFS string `json:"data_root_fs"`
	// The generator does not depend on either, but a reader comparing
	// connection-heavy runs across machines wants them.
	TCPTWReuse string `json:"tcp_tw_reuse"`
	PortRange  string `json:"ip_local_port_range"`

	Seed    uint64  `json:"seed"`
	Seconds float64 `json:"seconds"`
	Clients int     `json:"clients"`
	Quick   bool    `json:"quick,omitempty"`
}

func readEnvironment(opt options) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     core.DefaultKernel(core.SHA3).String(),
		DataRoot:   opt.dataRoot,
		DataRootFS: filesystemOf(opt.dataRoot),
		TCPTWReuse: procValue("/proc/sys/net/ipv4/tcp_tw_reuse"),
		PortRange:  procValue("/proc/sys/net/ipv4/ip_local_port_range"),
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Clients:    opt.clients,
		Quick:      opt.quick,
	}
	// The go tool stamps the commit into the binary when it builds inside
	// a git work tree.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+modified"
				}
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			key, value, _ := strings.Cut(line, ":")
			switch strings.TrimSpace(key) {
			case "model name":
				if env.CPUModel == "" {
					env.CPUModel = strings.TrimSpace(value)
				}
			case "flags":
				for _, f := range strings.Fields(value) {
					switch f {
					case "avx2":
						env.AVX2 = true
					case "avx512f":
						env.AVX512F = true
					case "avx512vl":
						env.AVX512VL = true
					}
				}
			}
		}
	}
	switch {
	case env.AVX512F && env.AVX512VL:
		env.KeccakISA = "avx512"
	case env.AVX2:
		env.KeccakISA = "avx2"
	default:
		env.KeccakISA = "portable"
	}
	return env
}

func procValue(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.Join(strings.Fields(string(data)), " ")
}

// filesystemOf names the filesystem a directory lives on.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
