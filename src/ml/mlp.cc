#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string_view>

namespace qsteer {

namespace {

constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kAdamEps = 1e-8;
/// Adam step size of Mlp::Train.
constexpr double kLearningRate = 1e-3;

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Serialization helpers: one `<tag> <count> <v0> <v1> ...` line per vector,
/// values as %.17g so a text round trip is bit-exact for every finite double.
void AppendVectorLine(const char* tag, const std::vector<double>& values, std::string* out) {
  char buf[64];
  out->append(tag);
  std::snprintf(buf, sizeof(buf), " %zu", values.size());
  out->append(buf);
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), " %.17g", v);
    out->append(buf);
  }
  out->push_back('\n');
}

Status ParseVectorLine(std::istream& in, const char* tag, std::vector<double>* out) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument(std::string("mlp: missing '") + tag + "' line");
  }
  std::istringstream tokens(line);
  std::string got_tag;
  size_t count = 0;
  if (!(tokens >> got_tag >> count) || got_tag != tag) {
    return Status::InvalidArgument(std::string("mlp: malformed '") + tag + "' line");
  }
  // An absurd count means a corrupt length field; bail before allocating.
  if (count > (1u << 24)) {
    return Status::InvalidArgument(std::string("mlp: '") + tag + "' count out of range");
  }
  out->assign(count, 0.0);
  for (size_t i = 0; i < count; ++i) {
    if (!(tokens >> (*out)[i])) {
      return Status::InvalidArgument(std::string("mlp: short '") + tag + "' line");
    }
  }
  std::string extra;
  if (tokens >> extra) {
    return Status::InvalidArgument(std::string("mlp: trailing data on '") + tag + "' line");
  }
  return Status::OK();
}

void AdamUpdate(std::vector<double>* params, const std::vector<double>& grads,
                std::vector<double>* m, std::vector<double>* v, double lr, int64_t step) {
  if (m->size() != params->size()) {
    m->assign(params->size(), 0.0);
    v->assign(params->size(), 0.0);
  }
  double bc1 = 1.0 - std::pow(kAdamBeta1, static_cast<double>(step));
  double bc2 = 1.0 - std::pow(kAdamBeta2, static_cast<double>(step));
  for (size_t i = 0; i < params->size(); ++i) {
    (*m)[i] = kAdamBeta1 * (*m)[i] + (1.0 - kAdamBeta1) * grads[i];
    (*v)[i] = kAdamBeta2 * (*v)[i] + (1.0 - kAdamBeta2) * grads[i] * grads[i];
    double mhat = (*m)[i] / bc1;
    double vhat = (*v)[i] / bc2;
    (*params)[i] -= lr * mhat / (std::sqrt(vhat) + kAdamEps);
  }
}

}  // namespace

Mlp::Mlp(int inputs, int hidden, int outputs, uint64_t seed)
    : inputs_(inputs), hidden_(hidden), outputs_(outputs), w1_(hidden, inputs),
      w2_(outputs, hidden), b1_(hidden, 0.0), b2_(outputs, 0.0) {
  // He initialization for the ReLU layer, Xavier-ish for the output.
  Pcg32 rng(seed, /*stream=*/101);
  double scale1 = std::sqrt(2.0 / std::max(1, inputs));
  for (double& w : w1_.data()) w = rng.NextGaussian() * scale1;
  double scale2 = std::sqrt(1.0 / std::max(1, hidden));
  for (double& w : w2_.data()) w = rng.NextGaussian() * scale2;
}

std::vector<double> Mlp::Forward(const std::vector<double>& x) const {
  std::vector<double> h(static_cast<size_t>(hidden_), 0.0);
  for (int j = 0; j < hidden_; ++j) {
    double acc = b1_[static_cast<size_t>(j)];
    for (int i = 0; i < inputs_ && i < static_cast<int>(x.size()); ++i) {
      acc += w1_.at(j, i) * x[static_cast<size_t>(i)];
    }
    h[static_cast<size_t>(j)] = std::max(0.0, acc);
  }
  std::vector<double> out(static_cast<size_t>(outputs_), 0.0);
  for (int k = 0; k < outputs_; ++k) {
    double acc = b2_[static_cast<size_t>(k)];
    for (int j = 0; j < hidden_; ++j) acc += w2_.at(k, j) * h[static_cast<size_t>(j)];
    out[static_cast<size_t>(k)] = Sigmoid(acc);
  }
  return out;
}

double Mlp::TrainStep(const std::vector<double>& x, const std::vector<double>& y, double lr) {
  // Forward with cached activations.
  std::vector<double> pre(static_cast<size_t>(hidden_), 0.0);
  std::vector<double> h(static_cast<size_t>(hidden_), 0.0);
  for (int j = 0; j < hidden_; ++j) {
    double acc = b1_[static_cast<size_t>(j)];
    for (int i = 0; i < inputs_ && i < static_cast<int>(x.size()); ++i) {
      acc += w1_.at(j, i) * x[static_cast<size_t>(i)];
    }
    pre[static_cast<size_t>(j)] = acc;
    h[static_cast<size_t>(j)] = std::max(0.0, acc);
  }
  std::vector<double> out(static_cast<size_t>(outputs_), 0.0);
  double loss = 0.0;
  std::vector<double> dout(static_cast<size_t>(outputs_), 0.0);
  for (int k = 0; k < outputs_; ++k) {
    double acc = b2_[static_cast<size_t>(k)];
    for (int j = 0; j < hidden_; ++j) acc += w2_.at(k, j) * h[static_cast<size_t>(j)];
    double p = Sigmoid(acc);
    out[static_cast<size_t>(k)] = p;
    double target = std::clamp(y[static_cast<size_t>(k)], 0.0, 1.0);
    double pc = std::clamp(p, 1e-7, 1.0 - 1e-7);
    loss += -(target * std::log(pc) + (1.0 - target) * std::log(1.0 - pc));
    // d(BCE)/d(logit) = p - target for sigmoid outputs.
    dout[static_cast<size_t>(k)] = p - target;
  }
  loss /= std::max(1, outputs_);

  // Backprop.
  std::vector<double> gw2(w2_.data().size(), 0.0);
  std::vector<double> gb2(static_cast<size_t>(outputs_), 0.0);
  std::vector<double> dh(static_cast<size_t>(hidden_), 0.0);
  for (int k = 0; k < outputs_; ++k) {
    double d = dout[static_cast<size_t>(k)];
    gb2[static_cast<size_t>(k)] = d;
    for (int j = 0; j < hidden_; ++j) {
      gw2[static_cast<size_t>(k) * hidden_ + j] = d * h[static_cast<size_t>(j)];
      dh[static_cast<size_t>(j)] += d * w2_.at(k, j);
    }
  }
  std::vector<double> gw1(w1_.data().size(), 0.0);
  std::vector<double> gb1(static_cast<size_t>(hidden_), 0.0);
  for (int j = 0; j < hidden_; ++j) {
    if (pre[static_cast<size_t>(j)] <= 0.0) continue;  // ReLU gate
    double d = dh[static_cast<size_t>(j)];
    gb1[static_cast<size_t>(j)] = d;
    for (int i = 0; i < inputs_ && i < static_cast<int>(x.size()); ++i) {
      gw1[static_cast<size_t>(j) * inputs_ + i] = d * x[static_cast<size_t>(i)];
    }
  }

  ++step_;
  AdamUpdate(&w2_.data(), gw2, &adam_w2_.m, &adam_w2_.v, lr, step_);
  AdamUpdate(&b2_, gb2, &adam_b2_.m, &adam_b2_.v, lr, step_);
  AdamUpdate(&w1_.data(), gw1, &adam_w1_.m, &adam_w1_.v, lr, step_);
  AdamUpdate(&b1_, gb1, &adam_b1_.m, &adam_b1_.v, lr, step_);
  return loss;
}

double Mlp::Evaluate(const std::vector<std::vector<double>>& xs,
                     const std::vector<std::vector<double>>& ys) const {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (size_t n = 0; n < xs.size(); ++n) {
    std::vector<double> out = Forward(xs[n]);
    double loss = 0.0;
    for (int k = 0; k < outputs_; ++k) {
      double target = std::clamp(ys[n][static_cast<size_t>(k)], 0.0, 1.0);
      double p = std::clamp(out[static_cast<size_t>(k)], 1e-7, 1.0 - 1e-7);
      loss += -(target * std::log(p) + (1.0 - target) * std::log(1.0 - p));
    }
    total += loss / std::max(1, outputs_);
  }
  return total / static_cast<double>(xs.size());
}

Mlp Mlp::Train(const std::vector<std::vector<double>>& train_x,
               const std::vector<std::vector<double>>& train_y,
               const std::vector<std::vector<double>>& val_x,
               const std::vector<std::vector<double>>& val_y, int outputs,
               const MlpOptions& options) {
  int inputs = train_x.empty() ? 1 : static_cast<int>(train_x[0].size());
  Mlp model(inputs, options.hidden, outputs, options.seed);
  Mlp best = model;
  double best_val = options.patience > 0 ? model.Evaluate(val_x, val_y) : 0.0;
  int stale = 0;

  Pcg32 rng(options.seed ^ 0xfeed, 103);
  std::vector<size_t> order(train_x.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t idx : order) {
      model.TrainStep(train_x[idx], train_y[idx], kLearningRate);
    }
    if (options.patience > 0 && !val_x.empty()) {
      double val = model.Evaluate(val_x, val_y);
      if (val < best_val - 1e-6) {
        best_val = val;
        best = model;
        stale = 0;
      } else if (++stale >= options.patience) {
        return best;
      }
    }
  }
  return (options.patience > 0 && !val_x.empty()) ? best : model;
}

std::string Mlp::Serialize() const {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "mlp %d %d %d %lld\n", inputs_, hidden_, outputs_,
                static_cast<long long>(step_));
  out.append(buf);
  AppendVectorLine("w1", w1_.data(), &out);
  AppendVectorLine("b1", b1_, &out);
  AppendVectorLine("w2", w2_.data(), &out);
  AppendVectorLine("b2", b2_, &out);
  // Adam moments are part of the model's identity: resuming training from a
  // deserialized model must follow the exact trajectory of the original.
  AppendVectorLine("adam_w1_m", adam_w1_.m, &out);
  AppendVectorLine("adam_w1_v", adam_w1_.v, &out);
  AppendVectorLine("adam_b1_m", adam_b1_.m, &out);
  AppendVectorLine("adam_b1_v", adam_b1_.v, &out);
  AppendVectorLine("adam_w2_m", adam_w2_.m, &out);
  AppendVectorLine("adam_w2_v", adam_w2_.v, &out);
  AppendVectorLine("adam_b2_m", adam_b2_.m, &out);
  AppendVectorLine("adam_b2_v", adam_b2_.v, &out);
  return out;
}

Result<Mlp> Mlp::Deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header)) return Status::InvalidArgument("mlp: empty input");
  Mlp model;
  long long step = 0;
  {
    std::istringstream tokens(header);
    std::string tag;
    if (!(tokens >> tag >> model.inputs_ >> model.hidden_ >> model.outputs_ >> step) ||
        tag != "mlp" || model.inputs_ < 0 || model.hidden_ < 0 || model.outputs_ < 0 ||
        step < 0) {
      return Status::InvalidArgument("mlp: malformed header line");
    }
  }
  model.step_ = step;
  model.w1_ = Matrix(model.hidden_, model.inputs_);
  model.w2_ = Matrix(model.outputs_, model.hidden_);

  struct Field {
    const char* tag;
    std::vector<double>* target;
    size_t expected;  // 0 allows empty (lazily-sized Adam moments)
  };
  const size_t w1_size = static_cast<size_t>(model.hidden_) * model.inputs_;
  const size_t w2_size = static_cast<size_t>(model.outputs_) * model.hidden_;
  const Field fields[] = {
      {"w1", &model.w1_.data(), w1_size},
      {"b1", &model.b1_, static_cast<size_t>(model.hidden_)},
      {"w2", &model.w2_.data(), w2_size},
      {"b2", &model.b2_, static_cast<size_t>(model.outputs_)},
      {"adam_w1_m", &model.adam_w1_.m, w1_size},
      {"adam_w1_v", &model.adam_w1_.v, w1_size},
      {"adam_b1_m", &model.adam_b1_.m, static_cast<size_t>(model.hidden_)},
      {"adam_b1_v", &model.adam_b1_.v, static_cast<size_t>(model.hidden_)},
      {"adam_w2_m", &model.adam_w2_.m, w2_size},
      {"adam_w2_v", &model.adam_w2_.v, w2_size},
      {"adam_b2_m", &model.adam_b2_.m, static_cast<size_t>(model.outputs_)},
      {"adam_b2_v", &model.adam_b2_.v, static_cast<size_t>(model.outputs_)},
  };
  for (const Field& field : fields) {
    Status st = ParseVectorLine(in, field.tag, field.target);
    if (!st.ok()) return st;
    bool adam = std::string_view(field.tag).substr(0, 4) == "adam";
    if (field.target->size() != field.expected && !(adam && field.target->empty())) {
      return Status::InvalidArgument(std::string("mlp: '") + field.tag +
                                     "' length disagrees with header dimensions");
    }
  }
  return model;
}

Status MinMaxScaler::Fit(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Status::OK();
  for (const auto& row : rows) {
    if (row.size() != rows[0].size()) {
      return Status::InvalidArgument(
          "min-max scaler: ragged feature rows (every row must have the width of the first)");
    }
  }
  min_ = rows[0];
  max_ = rows[0];
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      min_[i] = std::min(min_[i], row[i]);
      max_[i] = std::max(max_[i], row[i]);
    }
  }
  return Status::OK();
}

Status MinMaxScaler::Update(const std::vector<double>& row) {
  if (min_.empty()) {
    min_ = row;
    max_ = row;
    return Status::OK();
  }
  if (row.size() != min_.size()) {
    return Status::InvalidArgument("min-max scaler: row width disagrees with fitted width");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    min_[i] = std::min(min_[i], row[i]);
    max_[i] = std::max(max_[i], row[i]);
  }
  return Status::OK();
}

std::vector<double> MinMaxScaler::Transform(const std::vector<double>& row) const {
  std::vector<double> out = row;
  for (size_t i = 0; i < out.size() && i < min_.size(); ++i) {
    double range = max_[i] - min_[i];
    out[i] = range > 1e-12 ? std::clamp((out[i] - min_[i]) / range, 0.0, 1.0) : 0.0;
  }
  return out;
}

std::string MinMaxScaler::Serialize() const {
  std::string out;
  AppendVectorLine("scaler_min", min_, &out);
  AppendVectorLine("scaler_max", max_, &out);
  return out;
}

Result<MinMaxScaler> MinMaxScaler::Deserialize(const std::string& text) {
  std::istringstream in(text);
  MinMaxScaler scaler;
  Status st = ParseVectorLine(in, "scaler_min", &scaler.min_);
  if (!st.ok()) return st;
  st = ParseVectorLine(in, "scaler_max", &scaler.max_);
  if (!st.ok()) return st;
  if (scaler.min_.size() != scaler.max_.size()) {
    return Status::InvalidArgument("min-max scaler: min/max width mismatch");
  }
  return scaler;
}

std::vector<double> NormalizeRuntimes(const std::vector<double>& runtimes) {
  std::vector<double> out(runtimes.size(), 0.0);
  if (runtimes.empty()) return out;
  double lo = *std::min_element(runtimes.begin(), runtimes.end());
  double hi = *std::max_element(runtimes.begin(), runtimes.end());
  double range = hi - lo;
  for (size_t i = 0; i < runtimes.size(); ++i) {
    out[i] = range > 1e-12 ? (runtimes[i] - lo) / range : 0.0;
  }
  return out;
}

}  // namespace qsteer
