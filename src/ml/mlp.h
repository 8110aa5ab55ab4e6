// Dependency-free neural network for learned configuration selection
// (paper §7.3): a fully connected net with one hidden layer, sigmoid
// outputs, binary-cross-entropy loss on min-max-normalized runtimes, and
// Adam. The learning problems here are tiny (hundreds of samples, a few
// hundred features), so an exact from-scratch implementation replaces the
// paper's PyTorch dependency without approximation.
#ifndef QSTEER_ML_MLP_H_
#define QSTEER_ML_MLP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace qsteer {

/// Row-major dense matrix, just enough for the MLP.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  double& at(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  double at(int r, int c) const { return data_[static_cast<size_t>(r) * cols_ + c]; }
  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

struct MlpOptions {
  int hidden = 64;
  int epochs = 200;
  uint64_t seed = 1;
  /// Early-stop patience on validation loss (0 disables).
  int patience = 25;
};

/// One-hidden-layer MLP: x -> ReLU(W1 x + b1) -> sigmoid(W2 h + b2).
class Mlp {
 public:
  /// Empty model (0-dimensional); a deserialization target only.
  Mlp() = default;

  Mlp(int inputs, int hidden, int outputs, uint64_t seed);

  std::vector<double> Forward(const std::vector<double>& x) const;

  /// One SGD/Adam step on a single example with BCE loss; returns the loss.
  double TrainStep(const std::vector<double>& x, const std::vector<double>& y, double lr);

  /// Mean BCE loss over a dataset.
  double Evaluate(const std::vector<std::vector<double>>& xs,
                  const std::vector<std::vector<double>>& ys) const;

  int inputs() const { return inputs_; }
  int outputs() const { return outputs_; }

  /// Full training loop with shuffling and optional validation early stop.
  static Mlp Train(const std::vector<std::vector<double>>& train_x,
                   const std::vector<std::vector<double>>& train_y,
                   const std::vector<std::vector<double>>& val_x,
                   const std::vector<std::vector<double>>& val_y, int outputs,
                   const MlpOptions& options);

  /// Every parameter — weights, biases, Adam moments, step counter — as
  /// %.17g text, so Deserialize(Serialize()) reproduces the model (and its
  /// future training trajectory) bit for bit. Two models with equal state
  /// serialize to equal bytes.
  std::string Serialize() const;
  static Result<Mlp> Deserialize(const std::string& text);

 private:
  struct AdamState {
    std::vector<double> m;
    std::vector<double> v;
  };

  int inputs_ = 0;
  int hidden_ = 0;
  int outputs_ = 0;
  Matrix w1_, w2_;
  std::vector<double> b1_, b2_;
  AdamState adam_w1_, adam_w2_, adam_b1_, adam_b2_;
  int64_t step_ = 0;
};

/// Min-max feature scaler fit on training data (paper §7.2 encodes
/// continuous features to [0, 1]).
class MinMaxScaler {
 public:
  /// Replaces the fitted bounds with the column ranges of `rows`.
  /// kInvalidArgument when the rows are ragged (inconsistent widths): a
  /// narrow row would otherwise silently truncate every later column.
  Status Fit(const std::vector<std::vector<double>>& rows);

  /// Widens the fitted bounds to cover `row` (online fitting); the first
  /// call adopts the row's width. kInvalidArgument on a width mismatch.
  Status Update(const std::vector<double>& row);

  std::vector<double> Transform(const std::vector<double>& row) const;

  bool fitted() const { return !min_.empty(); }
  int width() const { return static_cast<int>(min_.size()); }

  /// %.17g text, bit-exact round trip; equal state => equal bytes.
  std::string Serialize() const;
  static Result<MinMaxScaler> Deserialize(const std::string& text);

 private:
  std::vector<double> min_, max_;
};

/// Normalizes K runtimes to [0, 1] per sample (the BCE targets of §7.3).
std::vector<double> NormalizeRuntimes(const std::vector<double>& runtimes);

}  // namespace qsteer

#endif  // QSTEER_ML_MLP_H_
