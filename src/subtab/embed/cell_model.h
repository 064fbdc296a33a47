#ifndef SUBTAB_EMBED_CELL_MODEL_H_
#define SUBTAB_EMBED_CELL_MODEL_H_

#include <span>
#include <vector>

#include "subtab/binning/binned_table.h"
#include "subtab/embed/word2vec.h"

/// \file cell_model.h
/// The cell-to-vector model M of Algorithm 2 (line 4): maps every table cell
/// to the embedding vector of its (column, bin) token, and derives
/// tuple-vectors and column-vectors by component-wise averaging (lines 8–10
/// and 13–15). The model is computed once at pre-processing time and reused
/// for every query over the table.

namespace subtab {

/// Cell-to-vector model over one binned table.
class CellModel {
 public:
  CellModel() = default;
  CellModel(const BinnedTable* binned, Word2VecModel model)
      : binned_(binned), model_(std::move(model)) {
    SUBTAB_CHECK(binned_ != nullptr);
    SUBTAB_CHECK(model_.vocab_size() == binned_->total_bins());
  }

  size_t dim() const { return model_.dim(); }
  const Word2VecModel& word2vec() const { return model_; }
  const BinnedTable& binned() const { return *binned_; }

  /// M(t(u)): vector of the cell at (row, col).
  std::span<const float> CellVector(size_t row, size_t col) const {
    return model_.vector(binned_->DenseIndex(binned_->token(row, col)));
  }

  /// Vector of a token directly.
  std::span<const float> TokenVector(Token t) const {
    return model_.vector(binned_->DenseIndex(t));
  }

  /// Tuple-vector: average of the row's cell vectors over `col_ids`
  /// (Algorithm 2 line 9).
  std::vector<float> RowVector(size_t row, const std::vector<size_t>& col_ids) const;

  /// Column-vector: average of the column's cell vectors over `row_ids`
  /// (Algorithm 2 line 14).
  std::vector<float> ColumnVector(size_t col, const std::vector<size_t>& row_ids) const;

  /// RowVector of each row id, stacked into a row-major matrix.
  std::vector<float> RowMatrix(const std::vector<size_t>& row_ids,
                               const std::vector<size_t>& col_ids) const;

 private:
  const BinnedTable* binned_ = nullptr;
  Word2VecModel model_;
};

}  // namespace subtab

#endif  // SUBTAB_EMBED_CELL_MODEL_H_
