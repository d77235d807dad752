// vfpga-bench <experiment> [flags]: every bench of experiments.hpp.
#include "experiments.hpp"

int main(int argc, char** argv) {
  return vfpga::bench::run_experiment(argc, argv);
}
