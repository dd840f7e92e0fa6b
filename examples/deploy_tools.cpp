// deploy_tools — the offline deployment workflow a real integration would
// script: export a labeled window set to CSV (the exchange format for real
// recordings), train on re-imported data, quantize the deployed network,
// compare its energy/accuracy, and ship it as a serialized blob.
#include <cstdio>
#include <filesystem>

#include "core/pipeline.hpp"
#include "data/import.hpp"
#include "nn/quantize.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"

using namespace origin;

int main() {
  const auto spec = data::dataset_spec(data::DatasetKind::MHealthLike);
  const auto dir = std::filesystem::temp_directory_path() / "origin_deploy";
  std::filesystem::create_directories(dir);

  // 1. Export a training corpus to CSV (an external pipeline could drop
  //    real MHEALTH windows in the same layout).
  const auto train = data::make_training_set(
      spec, data::SensorLocation::LeftAnkle, 60, data::reference_user(), 99);
  const auto csv = (dir / "ankle_train.csv").string();
  data::save_samples_csv(csv, train, spec);
  std::printf("exported %zu windows -> %s\n", train.size(), csv.c_str());

  // 2. Re-import and train the deployment network from the CSV.
  const auto imported = data::load_samples_csv(csv, spec);
  nn::Sequential model = core::make_bl1_architecture(spec, 7);
  nn::TrainConfig tc;
  tc.epochs = 6;
  tc.early_stop_accuracy = 0.97;
  nn::Trainer(tc).fit(model, imported);
  const auto test = data::make_training_set(
      spec, data::SensorLocation::LeftAnkle, 25, data::reference_user(), 100);
  std::printf("float32: accuracy %.1f %%, energy %.2f uJ/inference\n",
              100.0 * nn::Trainer::evaluate(model, test).accuracy,
              1e6 * nn::estimate_cost(model, {spec.channels, spec.window_len}).energy_j);

  // 3. Quantize for deployment and re-measure.
  for (int bits : {8, 4}) {
    nn::Sequential q = model;
    const auto report = nn::quantize_weights(q, bits);
    const auto cost =
        nn::estimate_cost_at_bits(q, {spec.channels, spec.window_len}, bits);
    std::printf("int%d:    accuracy %.1f %%, energy %.2f uJ/inference "
                "(rms weight error %.4f)\n",
                bits, 100.0 * nn::Trainer::evaluate(q, test).accuracy,
                1e6 * cost.energy_j, report.rms_error);
  }

  // 4. Ship the blob a sensor node would flash.
  const auto blob = (dir / "ankle_int8.bin").string();
  nn::Sequential deploy = model;
  nn::quantize_weights(deploy, 8);
  nn::save_model(deploy, blob);
  nn::Sequential flashed = nn::load_model(blob);
  std::printf("serialized -> %s (%zu params); reload check: %s\n", blob.c_str(),
              flashed.param_count(),
              flashed.predict(test[0].input) == deploy.predict(test[0].input)
                  ? "OK"
                  : "MISMATCH");
  return 0;
}
