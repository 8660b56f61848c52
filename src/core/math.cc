#include "core/math.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"

namespace tpupoint {

double
dotN(const double *a, const double *b, std::size_t n)
{
    // Unroll by four: the products are independent (vectorizable)
    // but the accumulation folds them in index order so the result
    // is bit-identical to the plain sequential loop.
    double sum = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const double p0 = a[i] * b[i];
        const double p1 = a[i + 1] * b[i + 1];
        const double p2 = a[i + 2] * b[i + 2];
        const double p3 = a[i + 3] * b[i + 3];
        sum += p0;
        sum += p1;
        sum += p2;
        sum += p3;
    }
    for (; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

double
squaredDistanceN(const double *a, const double *b, std::size_t n)
{
    double sum = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const double d0 = a[i] - b[i];
        const double d1 = a[i + 1] - b[i + 1];
        const double d2 = a[i + 2] - b[i + 2];
        const double d3 = a[i + 3] - b[i + 3];
        sum += d0 * d0;
        sum += d1 * d1;
        sum += d2 * d2;
        sum += d3 * d3;
    }
    for (; i < n; ++i) {
        const double d = a[i] - b[i];
        sum += d * d;
    }
    return sum;
}

void
squaredDistancesN(const double *a, const double *rows,
                  std::size_t count, std::size_t n, double *out)
{
    for (std::size_t j = 0; j < count; ++j)
        out[j] = squaredDistanceN(a, rows + j * n, n);
}

void
addN(double *a, const double *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        a[i] += b[i];
}

void
scaleN(double *v, double s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        v[i] *= s;
}

double
dot(const FeatureVector &a, const FeatureVector &b)
{
    if (a.size() != b.size())
        panic("dot: dimension mismatch ", a.size(), " vs ", b.size());
    return dotN(a.data(), b.data(), a.size());
}

double
l2Norm(const FeatureVector &v)
{
    return std::sqrt(dot(v, v));
}

void
scaleInPlace(FeatureVector &v, double s)
{
    scaleN(v.data(), s, v.size());
}

void
normalizeInPlace(FeatureVector &v)
{
    const double norm = l2Norm(v);
    if (norm > 0.0)
        scaleInPlace(v, 1.0 / norm);
}

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : num_rows(rows), num_cols(cols), cells(rows * cols, 0.0)
{
}

double &
Matrix::at(std::size_t r, std::size_t c)
{
    if (r >= num_rows || c >= num_cols)
        panic("Matrix::at out of range");
    return cells[r * num_cols + c];
}

double
Matrix::at(std::size_t r, std::size_t c) const
{
    if (r >= num_rows || c >= num_cols)
        panic("Matrix::at out of range");
    return cells[r * num_cols + c];
}

double *
Matrix::rowPtr(std::size_t r)
{
    if (r >= num_rows)
        panic("Matrix::rowPtr out of range");
    // data() + offset stays valid for zero-column matrices.
    return cells.data() + r * num_cols;
}

const double *
Matrix::rowPtr(std::size_t r) const
{
    if (r >= num_rows)
        panic("Matrix::rowPtr out of range");
    return cells.data() + r * num_cols;
}

void
Matrix::resize(std::size_t rows, std::size_t cols)
{
    num_rows = rows;
    num_cols = cols;
    cells.assign(rows * cols, 0.0);
}

FeatureVector
Matrix::row(std::size_t r) const
{
    const double *p = rowPtr(r);
    return FeatureVector(p, p + num_cols);
}

FeatureVector
Matrix::multiply(const FeatureVector &v) const
{
    if (v.size() != num_cols)
        panic("Matrix::multiply: dimension mismatch");
    FeatureVector out(num_rows, 0.0);
    for (std::size_t r = 0; r < num_rows; ++r)
        out[r] = dotN(cells.data() + r * num_cols, v.data(),
                      num_cols);
    return out;
}

Matrix
Matrix::transposed() const
{
    Matrix out(num_cols, num_rows);
    for (std::size_t r = 0; r < num_rows; ++r)
        for (std::size_t c = 0; c < num_cols; ++c)
            out.at(c, r) = at(r, c);
    return out;
}

Matrix
Matrix::fromRows(const std::vector<FeatureVector> &data)
{
    Matrix out(data.size(),
               data.empty() ? 0 : data.front().size());
    for (std::size_t r = 0; r < data.size(); ++r) {
        if (data[r].size() != out.num_cols)
            panic("Matrix::fromRows: ragged rows");
        std::copy(data[r].begin(), data[r].end(), out.rowPtr(r));
    }
    return out;
}

Matrix
Matrix::covariance(const Matrix &data)
{
    if (data.rows() == 0)
        fatal("Matrix::covariance: empty data set");
    const std::size_t dim = data.cols();

    // Mean first (row-order adds), then per-row upper-triangle
    // updates.
    FeatureVector mean(dim, 0.0);
    for (std::size_t r = 0; r < data.rows(); ++r)
        addN(mean.data(), data.rowPtr(r), dim);
    scaleN(mean.data(), 1.0 / static_cast<double>(data.rows()), dim);

    Matrix cov(dim, dim);
    for (std::size_t r = 0; r < data.rows(); ++r) {
        const double *row = data.rowPtr(r);
        for (std::size_t i = 0; i < dim; ++i) {
            const double di = row[i] - mean[i];
            double *out = cov.rowPtr(i);
            for (std::size_t j = i; j < dim; ++j)
                out[j] += di * (row[j] - mean[j]);
        }
    }
    const double inv = 1.0 / static_cast<double>(data.rows());
    for (std::size_t i = 0; i < dim; ++i) {
        for (std::size_t j = i; j < dim; ++j) {
            cov.at(i, j) *= inv;
            cov.at(j, i) = cov.at(i, j);
        }
    }
    return cov;
}

} // namespace tpupoint
