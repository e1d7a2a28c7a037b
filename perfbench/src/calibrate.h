// Machine speed readings. The host lends this program a share of its cores,
// and how fast those run drifts by a third and more over minutes, with no
// change to the program. A fixed kernel that calls no engine code is timed
// between batches of measured work, on as many threads as the work keeps
// busy, and a run's times are scaled to a fixed reference speed by the
// median of its readings: an engine change moves them, the host's drift
// much less (BENCH.md, "Reference speed").
#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

#include <vector>

namespace perfbench {

// The kernel time, in ms, at the reference speed that scaled figures are
// expressed at: about what the kernel takes on a 4-core Xeon VM when the
// host is quiet.
constexpr double kReferenceKernelMs = 3.0;

// One run of the kernel -- allocating, hashing and sorting strings and
// sorting integers over a working set of under 1 MiB, as the executor does
// with rows -- and its wall time in ms.
double KernelMs();

// The speed readings of one run.
class SpeedGauge {
 public:
  // Work that keeps n cores busy is read with n threads: each core the host
  // lends runs at its own speed.
  explicit SpeedGauge(int threads) : threads_(threads) {}

  // Takes a reading: the kernel runs three times on each thread at once,
  // and the reading is the median of the three rounds' mean kernel time.
  // Call it with no measured work running: a reading beside the work
  // measures how the two contend.
  void Read();
  // The factor that brings the run's times to reference speed:
  // kReferenceKernelMs over the median reading.
  double Scale() const;
  int readings() const { return static_cast<int>(readings_ms_.size()); }

 private:
  int threads_;
  std::vector<double> readings_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
