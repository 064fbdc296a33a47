#include "subtab/embed/cell_model.h"

namespace subtab {

std::vector<float> CellModel::RowVector(size_t row,
                                        const std::vector<size_t>& col_ids) const {
  SUBTAB_CHECK(!col_ids.empty());
  return RowMatrix({row}, col_ids);
}

std::vector<float> CellModel::ColumnVector(size_t col,
                                           const std::vector<size_t>& row_ids) const {
  SUBTAB_CHECK(!row_ids.empty());
  std::vector<float> acc(dim(), 0.0f);
  for (size_t r : row_ids) {
    const auto v = CellVector(r, col);
    for (size_t d = 0; d < acc.size(); ++d) acc[d] += v[d];
  }
  const float inv = 1.0f / static_cast<float>(row_ids.size());
  for (float& x : acc) x *= inv;
  return acc;
}

std::vector<float> CellModel::RowMatrix(const std::vector<size_t>& row_ids,
                                        const std::vector<size_t>& col_ids) const {
  SUBTAB_CHECK(row_ids.empty() || !col_ids.empty());
  // Per row: float sum over the columns in order, then one multiply by the
  // reciprocal; accumulated in place, no per-row vector.
  const size_t d_count = dim();
  std::vector<float> matrix(row_ids.size() * d_count, 0.0f);
  const float inv = 1.0f / static_cast<float>(col_ids.size());
  float* out = matrix.data();
  for (size_t r : row_ids) {
    for (size_t c : col_ids) {
      const auto v = CellVector(r, c);
      for (size_t d = 0; d < d_count; ++d) out[d] += v[d];
    }
    for (size_t d = 0; d < d_count; ++d) out[d] *= inv;
    out += d_count;
  }
  return matrix;
}

}  // namespace subtab
